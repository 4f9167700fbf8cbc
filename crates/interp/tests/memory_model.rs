//! `Memory::copy` skips the bytes when both sides already hold them (write
//! versions, see `memory.rs`). These tests hold the arena to a plain model
//! that copies every time: after every operation each live buffer must equal
//! its model bit for bit.

use std::collections::HashMap;

use ftn_interp::{Buffer, BufferId, Memory};
use proptest::prelude::*;

fn bits(buffer: &Buffer) -> (&'static str, Vec<u64>) {
    let bits = match buffer {
        Buffer::F32(v) => v.iter().map(|x| x.to_bits() as u64).collect(),
        Buffer::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
        Buffer::I32(v) => v.iter().map(|&x| x as u32 as u64).collect(),
        Buffer::I64(v) => v.iter().map(|&x| x as u64).collect(),
        Buffer::I1(v) => v.iter().map(|&x| x as u64).collect(),
    };
    (buffer.type_name(), bits)
}

/// The arena under test beside a model that always copies.
struct Pair {
    memory: Memory,
    model: HashMap<u32, Buffer>,
}

impl Pair {
    fn new() -> Pair {
        Pair {
            memory: Memory::new(),
            model: HashMap::new(),
        }
    }

    fn alloc(&mut self, buffer: Buffer) -> BufferId {
        let id = self.memory.alloc(buffer.clone(), 0);
        self.model.insert(id.0, buffer);
        id
    }

    fn write(&mut self, id: BufferId, at: usize, raw: u64) {
        let (arena, model) = (self.memory.get_mut(id), self.model.get_mut(&id.0).unwrap());
        for buffer in [arena, model] {
            match buffer {
                Buffer::F32(v) => v[at] = f32::from_bits(raw as u32),
                Buffer::I64(v) => v[at] = raw as i64,
                _ => unreachable!("the tests make f32 and i64 buffers"),
            }
        }
    }

    /// Copy in the arena and in the model; both must agree on success.
    fn copy(&mut self, src: BufferId, dst: BufferId) -> Result<(), String> {
        let result = self.memory.copy(src, dst);
        let expect = match (self.model.get(&src.0), self.model.get(&dst.0)) {
            _ if src == dst => Ok(()),
            (Some(s), Some(d)) if s.type_name() == d.type_name() && s.len() == d.len() => {
                let s = s.clone();
                self.model.insert(dst.0, s);
                Ok(())
            }
            (Some(_), Some(_)) => Err("mismatch"),
            _ => Err("freed"),
        };
        match (&result, expect) {
            (Ok(()), Ok(())) => Ok(()),
            (Err(e), Err("freed")) if e.to_string().contains("freed buffer") => Ok(()),
            (Err(e), Err("mismatch")) if e.to_string().contains("type/length mismatch") => Ok(()),
            (got, want) => Err(format!("copy {src:?} -> {dst:?}: {got:?}, model {want:?}")),
        }
    }

    fn free(&mut self, id: BufferId) {
        self.memory.free(id);
        self.model.remove(&id.0);
    }

    fn check(&self) -> Result<(), String> {
        if self.memory.live() != self.model.len() {
            return Err(format!(
                "{} live buffers, model has {}",
                self.memory.live(),
                self.model.len()
            ));
        }
        for (&slot, want) in &self.model {
            let got = self.memory.get(BufferId(slot));
            if bits(got) != bits(want) {
                return Err(format!("buffer {slot}: {got:?}, model {want:?}"));
            }
        }
        Ok(())
    }

    fn read(&self, id: BufferId) -> Vec<f32> {
        match self.memory.get(id) {
            Buffer::F32(v) => v.clone(),
            other => panic!("not f32: {other:?}"),
        }
    }
}

/// Random contents, shaped like `like` or, without it, one of two types
/// and two lengths, so most copies type-check and twins form.
fn random_buffer(rng: &mut proptest::TestRng, like: Option<&Buffer>) -> Buffer {
    let (int, len) = match like {
        Some(b) => (matches!(b, Buffer::I64(_)), b.len()),
        None => (rng.below(3) == 0, 2 + rng.below(2)),
    };
    match int {
        true => Buffer::I64((0..len).map(|_| rng.next_u64() as i64).collect()),
        false => Buffer::F32(
            (0..len)
                .map(|_| f32::from_bits(rng.next_u64() as u32))
                .collect(),
        ),
    }
}

/// Every slot ever issued, live or freed: copies into and out of freed
/// slots must keep failing the way they always did.
fn any_slot(pair: &Pair, rng: &mut proptest::TestRng) -> BufferId {
    BufferId(rng.below(pair.memory.len()) as u32)
}

fn live_slot(pair: &Pair, rng: &mut proptest::TestRng) -> Option<BufferId> {
    let mut live: Vec<u32> = pair.model.keys().copied().collect();
    live.sort_unstable();
    (!live.is_empty()).then(|| BufferId(live[rng.below(live.len())]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn every_buffer_matches_a_model_that_always_copies(seed in 0u64..u64::MAX, steps in 1usize..120) {
        let mut rng = proptest::TestRng::new(seed);
        let mut pair = Pair::new();
        let mut log = Vec::new();
        for _ in 0..steps {
            if pair.model.len() < 2 {
                let buffer = random_buffer(&mut rng, None);
                log.push(format!("alloc {buffer:?}"));
                pair.alloc(buffer);
                continue;
            }
            match rng.below(10) {
                0 if pair.model.len() < 7 => {
                    let buffer = random_buffer(&mut rng, None);
                    log.push(format!("alloc {buffer:?}"));
                    pair.alloc(buffer);
                }
                1 => {
                    let id = live_slot(&pair, &mut rng).unwrap();
                    let at = rng.below(pair.model[&id.0].len());
                    // A third of the writes store what is already there: a
                    // stamp, not a byte change, must end a twin pair.
                    let raw = match rng.below(3) {
                        0 => bits(&pair.model[&id.0]).1[at],
                        _ => rng.next_u64(),
                    };
                    log.push(format!("write {id:?}[{at}] = {raw:#x}"));
                    pair.write(id, at, raw);
                }
                2 | 3 => {
                    let (src, dst) = (any_slot(&pair, &mut rng), any_slot(&pair, &mut rng));
                    log.push(format!("copy {src:?} -> {dst:?}"));
                    pair.copy(src, dst).map_err(TestCaseError::fail)?;
                }
                4 => {
                    // A round trip (host -> device -> host) or a chain to a
                    // third buffer (H -> D -> H2).
                    let x = live_slot(&pair, &mut rng).unwrap();
                    let y = live_slot(&pair, &mut rng).unwrap();
                    let z = if rng.below(2) == 0 { x } else { live_slot(&pair, &mut rng).unwrap() };
                    log.push(format!("chain {x:?} -> {y:?} -> {z:?}"));
                    pair.copy(x, y).map_err(TestCaseError::fail)?;
                    pair.copy(y, z).map_err(TestCaseError::fail)?;
                }
                5 => {
                    let (x, y) = (live_slot(&pair, &mut rng).unwrap(), live_slot(&pair, &mut rng).unwrap());
                    log.push(format!("repeat {x:?} -> {y:?} twice, then back"));
                    pair.copy(x, y).map_err(TestCaseError::fail)?;
                    pair.copy(x, y).map_err(TestCaseError::fail)?;
                    pair.copy(y, x).map_err(TestCaseError::fail)?;
                }
                6 | 7 => {
                    let id = live_slot(&pair, &mut rng).unwrap();
                    log.push(format!("free {id:?}"));
                    let freed = pair.model[&id.0].clone();
                    pair.free(id);
                    if rng.below(2) == 0 {
                        // Reuse the slot at once, with the freed buffer's
                        // type and length, so a stale record could match.
                        let buffer = random_buffer(&mut rng, Some(&freed));
                        log.push(format!("alloc {buffer:?}"));
                        pair.alloc(buffer);
                    }
                }
                8 => {
                    log.push("clone".to_string());
                    pair.memory = pair.memory.clone();
                }
                _ => {
                    let id = live_slot(&pair, &mut rng).unwrap();
                    log.push(format!("get_mut {id:?}"));
                    pair.memory.get_mut(id);
                }
            }
            pair.check()
                .map_err(|e| TestCaseError::fail(format!("{e}\n  after: {}", log.join("; "))))?;
        }
    }
}

/// Host buffer `h` copied to device buffer `d`: the first transfer of an
/// implicit `tofrom` map.
fn twins() -> (Pair, BufferId, BufferId) {
    let mut pair = Pair::new();
    let h = pair.alloc(Buffer::F32(vec![1.0, 2.0, 3.0]));
    let d = pair.alloc(Buffer::F32(vec![0.0; 3]));
    pair.copy(h, d).unwrap();
    (pair, h, d)
}

#[test]
fn unchanged_twins_move_no_bytes_in_either_direction() {
    let (mut pair, h, d) = twins();
    let moved = pair.memory.bytes_copied();
    assert_eq!(moved, 12);
    for _ in 0..3 {
        pair.copy(d, h).unwrap();
        pair.copy(h, d).unwrap();
    }
    assert_eq!(pair.memory.bytes_copied(), moved);
    // A copy onward to a third buffer is real traffic, and makes a twin.
    let h2 = pair.alloc(Buffer::F32(vec![0.0; 3]));
    pair.copy(d, h2).unwrap();
    pair.copy(h2, d).unwrap();
    assert_eq!(pair.memory.bytes_copied(), moved + 12);
    pair.check().unwrap();
}

#[test]
fn a_source_written_after_a_copy_is_copied_again() {
    let (mut pair, h, d) = twins();
    pair.write(h, 1, 7.5f32.to_bits() as u64);
    pair.copy(h, d).unwrap();
    assert_eq!(pair.read(d), [1.0, 7.5, 3.0]);
    pair.check().unwrap();
}

#[test]
fn a_destination_written_after_a_copy_is_copied_again() {
    let (mut pair, h, d) = twins();
    pair.write(d, 0, (-4.0f32).to_bits() as u64);
    pair.copy(h, d).unwrap();
    assert_eq!(pair.read(d), [1.0, 2.0, 3.0]);
    pair.write(d, 2, 9.0f32.to_bits() as u64);
    pair.copy(d, h).unwrap();
    assert_eq!(pair.read(h), [1.0, 2.0, 9.0]);
    pair.check().unwrap();
}

#[test]
fn a_twin_whose_slot_is_freed_and_reused_is_copied_again() {
    // `h` is made a copy of `d`; `d`'s slot is then freed and reissued to a
    // buffer of the same type and length with other contents. The record
    // `h` keeps of `d` must not match the newcomer, in either direction.
    for into_h in [true, false] {
        let mut pair = Pair::new();
        let d = pair.alloc(Buffer::F32(vec![1.0, 2.0, 3.0]));
        let h = pair.alloc(Buffer::F32(vec![0.0; 3]));
        pair.copy(d, h).unwrap();
        pair.free(d);
        let reused = pair.alloc(Buffer::F32(vec![7.0, 8.0, 9.0]));
        assert_eq!(reused, d, "the freed slot is reissued");
        if into_h {
            pair.copy(reused, h).unwrap();
            assert_eq!(pair.read(h), [7.0, 8.0, 9.0]);
        } else {
            pair.copy(h, reused).unwrap();
            assert_eq!(pair.read(reused), [1.0, 2.0, 3.0]);
        }
        pair.check().unwrap();
    }
}
