//! Hash-consed slices: the one table both lockset analyses intern into.
//!
//! Eraser's refinement runs twice in this workspace — over the locks a
//! goroutine holds at run time (`grs-detector`) and over the locks held at
//! each point of a CFG (`grs-golite`'s lint) — and both keep their sets,
//! sorted, in a [`SliceTable`]: every distinct slice is stored once, back
//! to back in one buffer, and named by a `u32` [`SliceId`], so equal ids
//! are equal contents and a set is copied by copying its id.

use std::hash::{Hash, Hasher};
use std::marker::PhantomData;

use grs_obs::hash::{FnvHasher, FnvMap};

/// An interned slice: an id into the [`SliceTable`] that issued it.
/// [`SliceId::EMPTY`] names the empty slice in every table; the others
/// come in first-intern order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SliceId<T>(u32, PhantomData<fn() -> T>);

impl<T> SliceId<T> {
    /// The empty slice, id 0 in every table.
    pub const EMPTY: SliceId<T> = SliceId(0, PhantomData);
}

impl<T> Default for SliceId<T> {
    fn default() -> Self {
        Self::EMPTY
    }
}

/// Every slice interned so far, each stored once: equal slices share an
/// id, so comparing ids compares contents.
#[derive(Debug)]
pub struct SliceTable<T> {
    /// Every slice's elements, back to back.
    items: Vec<T>,
    /// Where each slice ends in `items` (it starts where the previous
    /// ends); `ends[0]` is the empty slice's.
    ends: Vec<u32>,
    /// Content hash → the first slice with that hash. The empty slice is
    /// never looked up here.
    by_hash: FnvMap<u64, u32>,
    /// Reused by [`SliceTable::make`].
    scratch: Vec<T>,
}

impl<T> Default for SliceTable<T> {
    fn default() -> Self {
        SliceTable {
            items: Vec::new(),
            ends: vec![0],
            by_hash: FnvMap::default(),
            scratch: Vec::new(),
        }
    }
}

impl<T: Copy + Eq + Hash> SliceTable<T> {
    /// Every slice, in the order first interned.
    pub fn iter(&self) -> impl Iterator<Item = SliceId<T>> {
        (0..self.ends.len() as u32).map(|i| SliceId(i, PhantomData))
    }

    /// The elements of `id`.
    ///
    /// # Panics
    ///
    /// Panics when the table holds no slice `id`: an id of another table,
    /// or one from before a [`SliceTable::reset`] not yet reissued.
    #[must_use]
    #[inline]
    pub fn get(&self, id: SliceId<T>) -> &[T] {
        let i = id.0 as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.items[start..self.ends[i] as usize]
    }

    /// The id of `slice`, adding it on first sight.
    pub fn intern(&mut self, slice: &[T]) -> SliceId<T> {
        if slice.is_empty() {
            return SliceId::EMPTY;
        }
        let mut h = FnvHasher::default();
        slice.hash(&mut h);
        let hash = h.finish();
        if let Some(&first) = self.by_hash.get(&hash) {
            // Another slice with this hash is all but impossible; when
            // there is one, the table is searched whole.
            let found = std::iter::once(first)
                .chain(1..self.ends.len() as u32)
                .map(|i| SliceId(i, PhantomData))
                .find(|&id| self.get(id) == slice);
            if let Some(id) = found {
                return id;
            }
        }
        let id = self.ends.len() as u32;
        self.items.extend_from_slice(slice);
        self.ends.push(self.items.len() as u32);
        self.by_hash.entry(hash).or_insert(id);
        SliceId(id, PhantomData)
    }

    /// Interns the slice `fill` writes into an empty buffer, which it may
    /// fill from the table's own slices.
    pub fn make(&mut self, fill: impl FnOnce(&Self, &mut Vec<T>)) -> SliceId<T> {
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        fill(self, &mut buf);
        let id = self.intern(&buf);
        self.scratch = buf;
        id
    }

    /// Forgets every slice but the empty one, keeping every allocation.
    /// The non-empty ids issued so far are void — [`SliceTable::get`]
    /// panics on one until the table grows past it again — and interning
    /// the same slices again reissues the same ids.
    pub fn reset(&mut self) {
        self.items.clear();
        self.ends.truncate(1);
        self.by_hash.clear();
    }
}
