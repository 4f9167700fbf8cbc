//! String interning. All identifiers in the IR (op names, attribute keys,
//! symbol names) are interned so they can be compared and hashed as a `u32`.
//!
//! Also home to the hasher behind every table the IR keys by content (the
//! interner, the type and attribute uniquers).

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// An interned string handle. Cheap to copy, compare and hash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Istr(pub(crate) u32);

/// A multiplicative hasher for short keys (op names, small type and
/// attribute descriptions), eight bytes per step: a fraction of SipHash's
/// cost on keys this short.
#[derive(Clone, Copy)]
pub struct ShortKeyHasher(u64);

impl ShortKeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for ShortKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // The tail's length goes in its unused top byte, so trailing
            // zero bytes are not padding.
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            last[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upward; table slots are picked by low bits.
        self.0.rotate_left(26)
    }
}

/// Starts every [`ShortKeyHasher`] of one table from a seed drawn from
/// std's `RandomState`. Interned strings include identifiers of submitted
/// source, so collisions worked out for one seed must not carry over.
#[derive(Clone, Copy)]
pub struct ShortKeyState(u64);

impl Default for ShortKeyState {
    fn default() -> Self {
        ShortKeyState(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for ShortKeyState {
    type Hasher = ShortKeyHasher;

    fn build_hasher(&self) -> ShortKeyHasher {
        ShortKeyHasher(self.0)
    }
}

/// A `HashMap` hashed with [`ShortKeyHasher`].
pub type ShortKeyMap<K, V> = HashMap<K, V, ShortKeyState>;

/// Append-only string interner. Strings are never freed; the IR is short-lived
/// relative to a compilation session, so this is the standard arena trade-off.
#[derive(Default, Debug)]
pub struct Interner {
    strings: Vec<Box<str>>,
    map: ShortKeyMap<Box<str>, Istr>,
}

impl Interner {
    pub fn intern(&mut self, s: &str) -> Istr {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = Istr(self.strings.len() as u32);
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.map.insert(boxed, id);
        id
    }

    pub fn get(&self, id: Istr) -> &str {
        &self.strings[id.0 as usize]
    }

    /// Look up an already-interned string without inserting.
    pub fn lookup(&self, s: &str) -> Option<Istr> {
        self.map.get(s).copied()
    }

    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups() {
        let mut i = Interner::default();
        let a = i.intern("arith.addf");
        let b = i.intern("arith.addf");
        let c = i.intern("arith.subf");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.get(a), "arith.addf");
        assert_eq!(i.get(c), "arith.subf");
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut i = Interner::default();
        assert!(i.lookup("missing").is_none());
        let a = i.intern("present");
        assert_eq!(i.lookup("present"), Some(a));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn short_keys_that_differ_hash_apart() {
        let state = ShortKeyState::default();
        let hash = |s: &str| state.hash_one(s);
        let keys = [
            "",
            "a",
            "b",
            "ab",
            "ba",
            "arith.addf",
            "arith.addi",
            "arith.addf\0",
        ];
        for (i, x) in keys.iter().enumerate() {
            for y in &keys[i + 1..] {
                assert_ne!(hash(x), hash(y), "{x:?} vs {y:?}");
            }
        }
    }
}
