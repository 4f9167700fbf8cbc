//! The device data environment: buffers tracked by string identifier with an
//! OpenMP-style presence counter (the integer counter scheme of §3 —
//! `data_acquire` increments, `data_release` decrements, `data_check_exists`
//! tests > 0). Buffers persist after release-to-zero so a later `alloc` of the
//! same identifier can reuse the storage (reallocating only on size change).

use std::collections::HashMap;

use ftn_interp::{InterpError, MemRefVal, Memory};

/// One tracked device allocation.
#[derive(Clone, Debug)]
pub struct DataEntry {
    pub memref: MemRefVal,
    pub count: i64,
    pub elem: String,
}

/// See module docs.
#[derive(Default, Debug)]
pub struct DataEnvironment {
    entries: HashMap<String, DataEntry>,
}

impl DataEnvironment {
    pub fn new() -> Self {
        Self::default()
    }

    /// `device.alloc`: ensure a buffer for `name` exists in `space` with the
    /// given element type and shape; reuses a same-size prior allocation.
    pub fn alloc(
        &mut self,
        memory: &mut Memory,
        name: &str,
        space: u32,
        elem: &str,
        shape: Vec<i64>,
    ) -> Result<MemRefVal, InterpError> {
        let len: i64 = shape.iter().product();
        if let Some(entry) = self.entries.get_mut(name) {
            let same = entry.memref.shape.iter().product::<i64>() == len
                && entry.elem == elem
                && entry.memref.space == space;
            if same {
                entry.memref.shape = shape;
                return Ok(entry.memref.clone());
            }
        }
        let buffer = memory.alloc_zeroed(elem, len.max(0) as usize, space)?;
        let memref = MemRefVal {
            buffer,
            shape,
            space,
        };
        self.entries.insert(
            name.to_string(),
            DataEntry {
                memref: memref.clone(),
                count: 0,
                elem: elem.to_string(),
            },
        );
        Ok(memref)
    }

    /// `device.lookup`.
    pub fn lookup(&self, name: &str) -> Result<MemRefVal, InterpError> {
        self.entries
            .get(name)
            .map(|e| e.memref.clone())
            .ok_or_else(|| InterpError::new(format!("device.lookup: '{name}' not allocated")))
    }

    /// `device.data_check_exists`: presence counter > 0.
    pub fn check_exists(&self, name: &str) -> bool {
        self.entries.get(name).map(|e| e.count > 0).unwrap_or(false)
    }

    /// `device.data_acquire`.
    pub fn acquire(&mut self, name: &str) -> Result<(), InterpError> {
        let entry = self
            .entries
            .get_mut(name)
            .ok_or_else(|| InterpError::new(format!("data_acquire of unallocated '{name}'")))?;
        entry.count += 1;
        Ok(())
    }

    /// `device.data_release`. Never drops below zero.
    pub fn release(&mut self, name: &str) -> Result<(), InterpError> {
        let entry = self
            .entries
            .get_mut(name)
            .ok_or_else(|| InterpError::new(format!("data_release of unallocated '{name}'")))?;
        if entry.count == 0 {
            return Err(InterpError::new(format!(
                "data_release of '{name}' with zero presence count"
            )));
        }
        entry.count -= 1;
        Ok(())
    }

    pub fn count(&self, name: &str) -> i64 {
        self.entries.get(name).map(|e| e.count).unwrap_or(0)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftn_interp::Buffer;

    #[test]
    fn presence_counter_lifecycle() {
        let mut env = DataEnvironment::new();
        let mut memory = Memory::new();
        assert!(!env.check_exists("a"));
        env.alloc(&mut memory, "a", 1, "f32", vec![8]).unwrap();
        assert!(!env.check_exists("a"), "alloc does not imply presence");
        env.acquire("a").unwrap();
        assert!(env.check_exists("a"));
        env.acquire("a").unwrap();
        env.release("a").unwrap();
        assert!(env.check_exists("a"), "nested region still holds");
        env.release("a").unwrap();
        assert!(!env.check_exists("a"));
        assert_eq!(env.count("a"), 0);
    }

    #[test]
    fn release_without_acquire_is_error() {
        let mut env = DataEnvironment::new();
        let mut memory = Memory::new();
        env.alloc(&mut memory, "a", 1, "f32", vec![4]).unwrap();
        assert!(env.release("a").is_err());
        assert!(env.release("never").is_err());
    }

    #[test]
    fn alloc_reuses_same_size_buffer() {
        let mut env = DataEnvironment::new();
        let mut memory = Memory::new();
        let m1 = env.alloc(&mut memory, "a", 1, "f32", vec![8]).unwrap();
        // Write through the first handle.
        if let Buffer::F32(data) = memory.get_mut(m1.buffer) {
            data[0] = 42.0;
        }
        let m2 = env.alloc(&mut memory, "a", 1, "f32", vec![8]).unwrap();
        assert_eq!(m1.buffer, m2.buffer, "same-size realloc must reuse");
        // Different size: fresh buffer.
        let m3 = env.alloc(&mut memory, "a", 1, "f32", vec![16]).unwrap();
        assert_ne!(m1.buffer, m3.buffer);
    }

    #[test]
    fn lookup_unknown_is_error() {
        let env = DataEnvironment::new();
        assert!(env.lookup("ghost").is_err());
    }
}
