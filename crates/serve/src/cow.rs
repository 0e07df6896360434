//! Copy-on-write containers for the epoch engine's live state.
//!
//! The engine keeps mutating one stream state while every view it
//! published goes on reading the state of its own epoch. Both containers
//! here make publishing a cheap clone instead of a copy: [`CowVec`] splits
//! a column into fixed-size chunks and [`CowMap`] splits a name → id map
//! into hash shards, each chunk or shard behind an `Arc`. A clone copies
//! only the spine of `Arc`s — O(len / [`CHUNK`]) or O([`SHARDS`]) — and
//! the first write to a chunk or shard that a clone still shares copies
//! that one chunk or shard (`Arc::make_mut`). Writes to unshared chunks
//! and shards happen in place.

use std::collections::HashMap;
use std::ops::Index;
use std::sync::Arc;

/// Elements per [`CowVec`] chunk. A clone copies `len / CHUNK` pointers;
/// the first write to a shared chunk copies `CHUNK` elements.
const CHUNK: usize = 128;

/// Shards per [`CowMap`]. A clone copies `SHARDS` pointers; the first
/// insert into a shared shard copies about `len / SHARDS` entries.
const SHARDS: usize = 256;

/// A copy-on-write column: a `Vec<T>` split into `Arc`-shared chunks.
#[derive(Debug)]
pub(crate) struct CowVec<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        Self { chunks: Vec::new(), len: 0 }
    }
}

impl<T> Clone for CowVec<T> {
    fn clone(&self) -> Self {
        Self { chunks: self.chunks.clone(), len: self.len }
    }
}

impl<T: Clone> CowVec<T> {
    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends `value`, copying the last chunk first if a clone shares it.
    pub(crate) fn push(&mut self, value: T) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => Arc::make_mut(last).push(value),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(value);
                self.chunks.push(Arc::new(chunk));
            }
        }
        self.len += 1;
    }

    /// Mutable access to element `i`, copying its chunk first if a clone
    /// shares it. Panics when out of range, like slice indexing.
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut T {
        &mut Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK]
    }

    /// The elements in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }
}

impl<T> Index<usize> for CowVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl<T: Clone> Extend<T> for CowVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, values: I) {
        for value in values {
            self.push(value);
        }
    }
}

impl<T: Clone> FromIterator<T> for CowVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(values: I) -> Self {
        let mut out = Self::default();
        out.extend(values);
        out
    }
}

/// A copy-on-write name → id map: `SHARDS` `Arc`-shared hash maps (none
/// until the first insert), a name's shard picked by a fixed FNV-1a hash
/// of its bytes. Each shard keeps the standard keyed hasher, so names a
/// client crafts can unbalance the shards but not collide inside one.
/// Lookup only: nothing iterates it, so its hash order never reaches any
/// output.
#[derive(Debug, Clone, Default)]
pub(crate) struct CowMap {
    shards: Vec<Arc<HashMap<Arc<str>, usize>>>,
}

/// The shard owning `name`.
fn shard_of(name: &str) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    // FNV's low bits mix poorly on short keys; fold the high half in.
    ((hash ^ (hash >> 32)) as usize) % SHARDS
}

impl CowMap {
    /// The id registered for `name`.
    pub(crate) fn get(&self, name: &str) -> Option<usize> {
        self.shards.get(shard_of(name))?.get(name).copied()
    }

    /// Registers `name` → `id`, copying the name's shard first if a clone
    /// shares it. A name registered twice keeps the later id; the earlier
    /// one is returned, so one insert both registers and detects a repeat.
    pub(crate) fn insert(&mut self, name: Arc<str>, id: usize) -> Option<usize> {
        if self.shards.is_empty() {
            self.shards = (0..SHARDS).map(|_| Arc::default()).collect();
        }
        Arc::make_mut(&mut self.shards[shard_of(&name)]).insert(name, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clone_keeps_its_values_while_the_original_moves_on() {
        let mut column: CowVec<usize> = (0..3 * CHUNK + 5).collect();
        let frozen = column.clone();
        *column.get_mut(CHUNK + 1) = 7;
        column.push(9);
        assert_eq!(frozen.len(), 3 * CHUNK + 5);
        assert_eq!(frozen[CHUNK + 1], CHUNK + 1);
        assert_eq!(column[CHUNK + 1], 7);
        assert_eq!(column[3 * CHUNK + 5], 9);
        assert!(frozen.iter().copied().eq(0..3 * CHUNK + 5));
    }

    #[test]
    fn a_write_copies_only_the_chunk_it_lands_in() {
        let mut column: CowVec<usize> = (0..4 * CHUNK).collect();
        let frozen = column.clone();
        *column.get_mut(2 * CHUNK) = 0;
        let shared = |i: usize| Arc::ptr_eq(&column.chunks[i], &frozen.chunks[i]);
        assert!(shared(0) && shared(1) && !shared(2) && shared(3));
        // Unshared now: a second write stays in place.
        let before = Arc::as_ptr(&column.chunks[2]);
        *column.get_mut(2 * CHUNK + 1) = 0;
        assert_eq!(Arc::as_ptr(&column.chunks[2]), before);
    }

    #[test]
    fn map_inserts_copy_one_shard_and_leave_clones_unchanged() {
        let mut map = CowMap::default();
        for i in 0..1000 {
            map.insert(Arc::from(format!("name-{i}")), i);
        }
        let frozen = map.clone();
        assert_eq!(map.insert(Arc::from("fresh"), 1000), None);
        assert_eq!(map.insert(Arc::from("name-3"), 3000), Some(3));
        assert_eq!(map.get("fresh"), Some(1000));
        assert_eq!(map.get("name-3"), Some(3000));
        assert_eq!(frozen.get("fresh"), None);
        assert_eq!(frozen.get("name-3"), Some(3));
        let copied = (0..SHARDS).filter(|&s| !Arc::ptr_eq(&map.shards[s], &frozen.shards[s]));
        assert!(copied.count() <= 2);
        assert!((0..1000).all(|i| frozen.get(&format!("name-{i}")) == Some(i)));
    }
}
