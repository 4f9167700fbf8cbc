//! [`SmallList`]: a list that keeps up to `N` items inline and moves to the
//! heap only past that bound.
//!
//! An op's operand, result, attribute, region and successor lists and a
//! value's use list are almost always a handful long (the bounds in
//! [`crate::ir::OpData`] come from the compiled corpus), so storing them in
//! place means building, cloning and freeing the IR allocates nothing per
//! op. Reads go through `Deref<Target = [T]>`.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Up to `N` items inline, a `Vec` past that. `T: Default` only fills the
/// unused inline slots.
#[derive(Clone)]
pub struct SmallList<T: Copy + Default, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    Inline(u8, [T; N]),
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> SmallList<T, N> {
    pub fn new() -> Self {
        SmallList(Repr::Inline(0, [T::default(); N]))
    }

    pub fn from_slice(items: &[T]) -> Self {
        if items.len() > N {
            return SmallList(Repr::Heap(items.to_vec()));
        }
        let mut inline = [T::default(); N];
        inline[..items.len()].copy_from_slice(items);
        SmallList(Repr::Inline(items.len() as u8, inline))
    }

    /// Whether the items have moved to the heap.
    pub fn spilled(&self) -> bool {
        matches!(self.0, Repr::Heap(_))
    }

    pub fn push(&mut self, item: T) {
        match &mut self.0 {
            Repr::Inline(len, items) if usize::from(*len) < N => {
                items[usize::from(*len)] = item;
                *len += 1;
            }
            Repr::Inline(_, items) => {
                let mut heap = Vec::with_capacity(2 * N + 1);
                heap.extend_from_slice(items);
                heap.push(item);
                self.0 = Repr::Heap(heap);
            }
            Repr::Heap(heap) => heap.push(item),
        }
    }

    pub fn extend_from_slice(&mut self, items: &[T]) {
        for &item in items {
            self.push(item);
        }
    }

    /// Remove item `index`, moving the last item into its place.
    pub fn swap_remove(&mut self, index: usize) -> T {
        match &mut self.0 {
            Repr::Inline(len, items) => {
                let last = usize::from(*len) - 1;
                let item = items[..=last][index];
                items[index] = items[last];
                *len -= 1;
                item
            }
            Repr::Heap(heap) => heap.swap_remove(index),
        }
    }

    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match &mut self.0 {
            Repr::Inline(len, items) => {
                let mut kept = 0;
                for i in 0..usize::from(*len) {
                    if keep(&items[i]) {
                        items[kept] = items[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Repr::Heap(heap) => heap.retain(keep),
        }
    }

    pub fn clear(&mut self) {
        *self = Self::new();
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallList<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for SmallList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline(len, items) => &items[..usize::from(*len)],
            Repr::Heap(heap) => heap,
        }
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for SmallList<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline(len, items) => &mut items[..usize::from(*len)],
            Repr::Heap(heap) => heap,
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallList<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = Self::new();
        for item in iter {
            list.push(item);
        }
        list
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SmallList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for SmallList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for SmallList<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spills_past_the_inline_bound_and_keeps_order() {
        let mut list: SmallList<u32, 2> = SmallList::new();
        list.push(1);
        list.push(2);
        assert!(!list.spilled());
        list.push(3);
        assert!(list.spilled());
        assert_eq!(list, vec![1, 2, 3]);
        assert_eq!(SmallList::<u32, 2>::from_slice(&[1, 2, 3]), list);
    }

    #[test]
    fn removal_matches_vec() {
        for n in 0..6u32 {
            let items: Vec<u32> = (0..n).collect();
            let mut list: SmallList<u32, 3> = items.iter().copied().collect();
            let mut reference = items.clone();
            list.retain(|&x| x % 2 == 0);
            reference.retain(|&x| x % 2 == 0);
            assert_eq!(list, reference);
            if !reference.is_empty() {
                assert_eq!(list.swap_remove(0), reference.swap_remove(0));
                assert_eq!(list, reference);
            }
            list.clear();
            assert!(list.is_empty() && !list.spilled());
        }
    }

    #[test]
    fn a_short_list_of_ids_is_no_larger_than_a_vec() {
        use std::mem::size_of;
        assert_eq!(size_of::<SmallList<u32, 3>>(), size_of::<Vec<u32>>());
    }
}
