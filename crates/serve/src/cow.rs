//! Copy-on-write containers for the epoch engine's live state.
//!
//! The engine keeps mutating one stream state while every view it
//! published goes on reading the state of its own epoch. The containers
//! here make publishing a cheap clone instead of a copy: each splits its
//! data into chunks or shards behind `Arc`s. A clone copies only the spine
//! of `Arc`s, and the first write to a chunk or shard that a clone still
//! shares copies that one chunk or shard (`Arc::make_mut`). Writes to
//! unshared chunks and shards happen in place.
//!
//! - [`CowChunks`] is the spine: records [`CHUNK`] to a chunk, each chunk
//!   of any shape. The stream state keeps each chunk's records as a few
//!   flat columns of their own (a name arena, a postings array with end
//!   offsets), so a chunk is a handful of allocations whatever its records
//!   hold.
//! - [`CowVec`] is a column of values on that spine, one `Vec` per chunk.
//! - [`IdMap`] is a name → id index split into [`SHARDS`] hash shards. It
//!   stores ids only; a name is compared against the arena its id points
//!   into, so registering a name allocates nothing for the map.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::ops::Index;
use std::sync::Arc;

/// Elements per [`CowVec`] chunk and records per [`CowChunks`] chunk. A
/// clone copies `len / CHUNK` pointers; the first write to a shared chunk
/// copies one chunk.
pub(crate) const CHUNK: usize = 128;

/// Shards per [`IdMap`]. A clone copies `SHARDS` pointers; the first
/// insert into a shared shard copies about `len / SHARDS` slots.
const SHARDS: usize = 256;

/// A copy-on-write column: a `Vec<T>` split into `Arc`-shared chunks, the
/// [`CowChunks`] whose chunks are plain `Vec`s.
#[derive(Debug)]
pub(crate) struct CowVec<T>(CowChunks<Vec<T>>);

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        Self(CowChunks::default())
    }
}

impl<T> Clone for CowVec<T> {
    fn clone(&self) -> Self {
        Self(self.0.clone())
    }
}

impl<T: Clone> CowVec<T> {
    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Appends `value`, copying the last chunk first if a clone shares it.
    pub(crate) fn push(&mut self, value: T) {
        let chunk = self.0.push();
        if chunk.capacity() == 0 {
            chunk.reserve_exact(CHUNK);
        }
        chunk.push(value);
    }

    /// Mutable access to element `i`, copying its chunk first if a clone
    /// shares it. Panics when out of range, like slice indexing.
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut T {
        let (chunk, at) = self.0.get_mut(i);
        &mut chunk[at]
    }

    /// The elements in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.0.chunks().flat_map(|chunk| chunk.iter())
    }
}

impl<T: Clone> Index<usize> for CowVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        let (chunk, at) = self.0.get(i);
        &chunk[at]
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
    /// Collects the values a chunk at a time.
    fn from_iter<I: IntoIterator<Item = T>>(values: I) -> Self {
        let mut values = values.into_iter();
        let mut out = Self::default();
        loop {
            let chunk: Vec<T> = values.by_ref().take(CHUNK).collect();
            match chunk.len() {
                0 => return out,
                records => out.0.push_chunk(chunk, records),
            }
        }
    }
}

/// A copy-on-write sequence of records held [`CHUNK`] to a chunk, each
/// chunk a `C` behind an `Arc`. The chunk decides how it stores its
/// records; this spine only counts them and says which chunk holds which.
#[derive(Debug)]
pub(crate) struct CowChunks<C> {
    chunks: Vec<Arc<C>>,
    len: usize,
}

impl<C> Default for CowChunks<C> {
    fn default() -> Self {
        Self { chunks: Vec::new(), len: 0 }
    }
}

impl<C> Clone for CowChunks<C> {
    fn clone(&self) -> Self {
        Self { chunks: self.chunks.clone(), len: self.len }
    }
}

impl<C: Clone + Default> CowChunks<C> {
    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The chunk holding record `i` and `i`'s place in it. Panics when out
    /// of range.
    pub(crate) fn get(&self, i: usize) -> (&C, usize) {
        assert!(i < self.len, "record {i} out of range ({})", self.len);
        (&self.chunks[i / CHUNK], i % CHUNK)
    }

    /// [`Self::get`] for writing: the chunk is copied first if a clone
    /// shares it.
    pub(crate) fn get_mut(&mut self, i: usize) -> (&mut C, usize) {
        assert!(i < self.len, "record {i} out of range ({})", self.len);
        (Arc::make_mut(&mut self.chunks[i / CHUNK]), i % CHUNK)
    }

    /// Counts one more record and returns the chunk it goes to, copied
    /// first if a clone shares it; a new chunk when the last one is full.
    /// The caller appends the record's data to the chunk.
    pub(crate) fn push(&mut self) -> &mut C {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::default());
        }
        self.len += 1;
        let last = self.chunks.len() - 1;
        Arc::make_mut(&mut self.chunks[last])
    }

    /// Appends `chunk`, which holds `records` records (1 to [`CHUNK`]),
    /// after the last chunk, which must be full.
    pub(crate) fn push_chunk(&mut self, chunk: C, records: usize) {
        assert!(self.len.is_multiple_of(CHUNK), "the last chunk is full");
        assert!((1..=CHUNK).contains(&records), "a chunk holds 1 to {CHUNK} records");
        self.chunks.push(Arc::new(chunk));
        self.len += records;
    }

    /// The chunks in order: every one holds [`CHUNK`] records but the
    /// last.
    pub(crate) fn chunks(&self) -> impl Iterator<Item = &C> + '_ {
        self.chunks.iter().map(|chunk| &**chunk)
    }
}

/// A copy-on-write name → id index that stores ids only: [`SHARDS`]
/// `Arc`-shared open-addressing tables (none until the first insert).
/// Each slot holds an id and 32 bits of its name's hash; a lookup compares
/// names, through the caller's `name_of`, only behind an equal hash. The
/// hash is SipHash under [`RandomState`] keys drawn per map (a clone keeps
/// them), so names a client crafts can neither crowd one shard nor collide
/// inside one. Lookup only: nothing iterates it, so its hash order never
/// reaches any output.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdMap {
    keys: RandomState,
    shards: Vec<Arc<Shard>>,
}

/// Marks an empty [`Slot`].
const EMPTY: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u32,
    id: u32,
}

/// One shard: a table at most half full, probed linearly from the hash's
/// low bits (its top bits chose the shard).
#[derive(Debug, Clone, Default)]
struct Shard {
    slots: Vec<Slot>,
    len: usize,
}

impl Shard {
    /// The slot holding the id whose name `same` accepts behind an equal
    /// `hash`, else the empty slot that ends the probe. The table must
    /// have at least one slot.
    fn probe(&self, hash: u32, mut same: impl FnMut(usize) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.id == EMPTY || (slot.hash == hash && same(slot.id as usize)) {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    /// Stores `id` under `hash` unless `same` accepts an id stored under
    /// an equal hash, which is returned instead.
    fn insert(&mut self, hash: u32, id: u32, same: impl FnMut(usize) -> bool) -> Option<usize> {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        let at = self.probe(hash, same);
        match self.slots[at].id {
            EMPTY => {
                self.slots[at] = Slot { hash, id };
                self.len += 1;
                None
            }
            registered => Some(registered as usize),
        }
    }

    /// Doubles the table (eight slots at first), re-placing every id by
    /// its stored hash: no name is read.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(8);
        let old = std::mem::replace(&mut self.slots, vec![Slot { hash: 0, id: EMPTY }; size]);
        for slot in old.into_iter().filter(|slot| slot.id != EMPTY) {
            let at = self.probe(slot.hash, |_| false);
            self.slots[at] = slot;
        }
    }
}

impl IdMap {
    /// The shard and the in-shard hash of `name`.
    fn locate(&self, name: &str) -> (usize, u32) {
        let hash = self.keys.hash_one(name);
        ((hash >> 56) as usize % SHARDS, hash as u32)
    }

    /// The id registered under `name`. `name_of(id)` is a registered
    /// id's name.
    pub(crate) fn get<'a>(&self, name: &str, name_of: impl Fn(usize) -> &'a str) -> Option<usize> {
        let (shard, hash) = self.locate(name);
        let shard = self.shards.get(shard)?;
        if shard.slots.is_empty() {
            return None;
        }
        let slot = shard.slots[shard.probe(hash, |id| name_of(id) == name)];
        (slot.id != EMPTY).then_some(slot.id as usize)
    }

    /// Registers `name` → `id` unless `name` is registered already, in
    /// which case the map is unchanged and the registered id is returned.
    /// Copies the name's shard first if a clone shares it. `name_of` is as
    /// for [`Self::get`]; `id` itself is never looked up.
    pub(crate) fn insert<'a>(
        &mut self,
        name: &str,
        id: usize,
        name_of: impl Fn(usize) -> &'a str,
    ) -> Option<usize> {
        assert!(id < EMPTY as usize, "ids fit below u32::MAX");
        let id = id as u32;
        if self.shards.is_empty() {
            self.shards = vec![Arc::default(); SHARDS];
        }
        let (shard, hash) = self.locate(name);
        Arc::make_mut(&mut self.shards[shard]).insert(hash, id, |id| name_of(id) == name)
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
        let shared = |i: usize| Arc::ptr_eq(&column.0.chunks[i], &frozen.0.chunks[i]);
        assert!(shared(0) && shared(1) && !shared(2) && shared(3));
        // Unshared now: a second write stays in place.
        let before = Arc::as_ptr(&column.0.chunks[2]);
        *column.get_mut(2 * CHUNK + 1) = 0;
        assert_eq!(Arc::as_ptr(&column.0.chunks[2]), before);
    }

    #[test]
    fn record_chunks_fill_in_order_and_copy_one_chunk_per_write() {
        let mut records: CowChunks<Vec<usize>> = CowChunks::default();
        for i in 0..2 * CHUNK + 3 {
            records.push().push(i);
        }
        assert_eq!(records.chunks().map(Vec::len).collect::<Vec<_>>(), [CHUNK, CHUNK, 3]);
        let frozen = records.clone();
        let (chunk, at) = records.get_mut(CHUNK + 2);
        chunk[at] = 0;
        records.push().push(7);
        let shared = |i: usize| Arc::ptr_eq(&records.chunks[i], &frozen.chunks[i]);
        assert!(shared(0) && !shared(1) && !shared(2));
        let read = |c: &CowChunks<Vec<usize>>, i: usize| {
            let (chunk, at) = c.get(i);
            chunk[at]
        };
        assert_eq!((read(&frozen, CHUNK + 2), read(&records, CHUNK + 2)), (CHUNK + 2, 0));
        assert_eq!((frozen.len(), records.len(), read(&records, 2 * CHUNK + 3)), (259, 260, 7));
    }

    #[test]
    fn map_inserts_copy_one_shard_and_leave_clones_unchanged() {
        let mut names: Vec<String> = (0..1000).map(|i| format!("name-{i}")).collect();
        let mut map = IdMap::default();
        for (i, name) in names.iter().enumerate() {
            let lookup = |id: usize| names[id].as_str();
            assert_eq!(map.insert(name, i, lookup), None);
        }
        let frozen = map.clone();
        names.push("fresh".into());
        let lookup = |id: usize| names[id].as_str();
        assert_eq!(map.insert("fresh", 1000, lookup), None);
        assert_eq!(map.insert("name-3", 3000, lookup), Some(3));
        assert_eq!(map.get("fresh", lookup), Some(1000));
        assert_eq!(map.get("name-3", lookup), Some(3));
        assert_eq!(frozen.get("fresh", lookup), None);
        assert_eq!(frozen.get("never", lookup), None);
        assert_eq!(IdMap::default().get("never", lookup), None);
        let copied = (0..SHARDS).filter(|&s| !Arc::ptr_eq(&map.shards[s], &frozen.shards[s]));
        assert!(copied.count() <= 2);
        assert!((0..1000).all(|i| frozen.get(&names[i], lookup) == Some(i)));
    }

    #[test]
    fn names_behind_an_equal_hash_stay_apart() {
        // Force every name into one probe chain: a map whose slots all
        // carry one hash still tells names apart by comparing them.
        let names: Vec<String> = (0..40).map(|i| format!("n{i}")).collect();
        let lookup = |id: usize| names[id].as_str();
        let mut shard = Shard::default();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(shard.insert(7, i as u32, |id| lookup(id) == name), None);
        }
        for (i, name) in names.iter().enumerate() {
            assert_eq!(shard.insert(7, 99, |id| lookup(id) == name), Some(i));
        }
        assert_eq!(shard.slots[shard.probe(7, |id| lookup(id) == "absent")].id, EMPTY);
        assert_eq!(shard.len, names.len());
    }
}
