//! A textual listing of a lowered function, for tests that pin the shape of
//! the code lowering and numbering produce (and for reading it).

use std::fmt::Write;

use crate::program::{Function, Instr, Program, SlotRange};

impl Program {
    /// One line per instruction of function `func` as `  <pc>  <text>`,
    /// after a header line; empty for an unknown function. A loop line ends
    /// in `body=[a,b)`, the half-open range of its body's positions — after
    /// the word `strip` when its iterations may run in strips, and then
    /// `copies=K` when the body is `K > 1` unrolled copies of one iteration
    /// that strips run as one — and an `if` line in `then=[a,b) else=[b,c)`.
    #[doc(hidden)]
    pub fn disassemble(&self, func: &str) -> String {
        let Some(&index) = self.by_name.get(func) else {
            return String::new();
        };
        let f = &self.funcs[index];
        let mut out = format!(
            "{}: {} instructions, {} slots\n",
            f.name,
            f.code.len(),
            f.tags.len()
        );
        for (pc, instr) in f.code.iter().enumerate() {
            let _ = writeln!(out, "{pc:5}  {}", line(f, pc, instr));
        }
        out
    }
}

fn range(f: &Function, r: SlotRange) -> String {
    let slots: Vec<String> = f.range(r).iter().map(|s| format!("%{s}")).collect();
    format!("({})", slots.join(", "))
}

fn line(f: &Function, pc: usize, instr: &Instr) -> String {
    match *instr {
        Instr::IntBin { op, dst, lhs, rhs } => format!("%{dst} = int.{op:?} %{lhs}, %{rhs}"),
        Instr::FloatBin { op, dst, lhs, rhs } => format!("%{dst} = float.{op:?} %{lhs}, %{rhs}"),
        Instr::NegF { dst, src } => format!("%{dst} = negf %{src}"),
        Instr::CmpI {
            pred,
            dst,
            lhs,
            rhs,
        } => format!("%{dst} = cmpi.{pred:?} %{lhs}, %{rhs}"),
        Instr::CmpF {
            pred,
            dst,
            lhs,
            rhs,
        } => format!("%{dst} = cmpf.{pred:?} %{lhs}, %{rhs}"),
        Instr::Select {
            dst,
            cond,
            on_true,
            on_false,
        } => format!("%{dst} = select %{cond}, %{on_true}, %{on_false}"),
        Instr::Convert { to, dst, src } => format!("%{dst} = convert.{to:?} %{src}"),
        Instr::Move { dst, src } => format!("%{dst} = move %{src}"),
        Instr::AxiProtocol { dst, src } => format!("%{dst} = axi_protocol %{src}"),
        Instr::Load1 { dst, mem, idx } => format!("%{dst} = load1 %{mem}[%{idx}]"),
        Instr::Store1 { val, mem, idx } => format!("store1 %{val}, %{mem}[%{idx}]"),
        Instr::Load { dst, mem, idx } => format!("%{dst} = load %{mem}{}", range(f, idx)),
        Instr::Store { val, mem, idx } => format!("store %{val}, %{mem}{}", range(f, idx)),
        Instr::Dim { dst, mem, dim } => format!("%{dst} = dim %{mem}, %{dim}"),
        Instr::Copy { src, dst } => format!("copy %{src} -> %{dst}"),
        Instr::Charge(ops) => format!("charge {ops}"),
        Instr::Alloc(i) => {
            let a = &f.allocs[i as usize];
            format!(
                "%{} = alloc {:?} x {} {}",
                a.dst,
                a.shape,
                a.elem,
                range(f, a.sizes)
            )
        }
        Instr::Loop(i) => {
            let l = &f.loops[i as usize];
            let strip = match l.strip.as_ref().map(|plan| plan.copies()) {
                None => String::new(),
                Some(1) => " strip".to_string(),
                Some(k) => format!(" strip copies={k}"),
            };
            format!(
                "loop {} %{} = %{} {} %{} step %{} carries {}{strip} body=[{},{})",
                l.name,
                l.iv,
                l.lb,
                if l.inclusive { "through" } else { "to" },
                l.ub,
                l.step,
                l.results.len,
                pc + 1,
                l.end
            )
        }
        Instr::If(i) => {
            let s = &f.ifs[i as usize];
            format!(
                "if %{} then=[{},{}) else=[{},{})",
                s.cond,
                pc + 1,
                s.else_start,
                s.else_start,
                s.end
            )
        }
        Instr::Hook(i) => {
            let h = &f.hooks[i as usize];
            format!("{} = hook {}", range(f, h.results), range(f, h.args))
        }
        Instr::Return(values) => format!("return {}", range(f, values)),
        Instr::Trap(i) => format!("trap {:?}", f.traps[i as usize]),
    }
}
