//! Word-addressed simulated global memory (GPU DRAM) with atomic primitives.
//!
//! GPU-STM is a *word-based* STM, so the simulator exposes memory as an array
//! of 32-bit words. Addresses are word indices wrapped in the [`Addr`]
//! newtype. A simple bump allocator hands out zero-initialised regions, like
//! `cudaMalloc` on a fresh device.
//!
//! Atomic read-modify-write operations are executed at a single point in the
//! simulation's global order (the executor totally orders warp instructions),
//! which models the GPU's L2-atomic semantics.

use crate::error::SimError;
use std::fmt;

/// A word address in simulated global memory.
///
/// One `Addr` unit is one 32-bit word (i.e. byte address / 4). The newtype
/// prevents mixing raw indices and device addresses.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u32);

impl Addr {
    /// The null address. The allocator never returns it for user data
    /// (word 0 is reserved), so it is usable as a sentinel.
    pub const NULL: Addr = Addr(0);

    /// Returns the address `words` words past `self`.
    #[inline]
    pub const fn offset(self, words: u32) -> Addr {
        Addr(self.0 + words)
    }

    /// Word index of this address.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The 128-byte (32-word) memory segment this address falls in.
    /// Coalescing and the L2 cache both operate on these segments.
    #[inline]
    pub const fn segment(self) -> u32 {
        self.0 / crate::coalesce::SEGMENT_WORDS
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// An atomic read-modify-write operation, as provided by GPU load/store
/// units. All return the *old* word value.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AtomicOp {
    /// `old = *a; *a = old + v`
    Add,
    /// `old = *a; *a = old | v`
    Or,
    /// `old = *a; *a = old & v`
    And,
    /// `old = *a; *a = v`
    Exch,
    /// `old = *a; *a = max(old, v)`
    Max,
}

/// Simulated device global memory.
///
/// Host-side code (the test/benchmark harness) may freely read and write via
/// [`GlobalMemory::read`]/[`GlobalMemory::write`] before and after kernel
/// launches; during a launch all traffic flows through the executor so that
/// it is timed and totally ordered.
#[derive(Debug)]
pub struct GlobalMemory {
    words: Vec<u32>,
    brk: u32,
    mutations: u64,
}

impl GlobalMemory {
    /// Creates a memory of `capacity_words` zeroed words.
    ///
    /// Word 0 is reserved so that [`Addr::NULL`] never aliases user data.
    pub fn new(capacity_words: usize) -> Self {
        GlobalMemory { words: vec![0; capacity_words.max(1)], brk: 1, mutations: 0 }
    }

    /// Returns to the state of `GlobalMemory::new(capacity_words)`, keeping
    /// the buffer when the capacity is unchanged: only the allocated
    /// prefix `[0, brk)` is zeroed, since every address a program can get
    /// from [`alloc`](Self::alloc) lies below the break.
    pub fn reset(&mut self, capacity_words: usize) {
        if self.words.len() == capacity_words.max(1) {
            self.words[..self.brk as usize].fill(0);
            self.brk = 1;
            self.mutations = 0;
        } else {
            *self = GlobalMemory::new(capacity_words);
        }
    }

    /// Count of word writes that actually *changed* a value. The progress
    /// monitor uses this to tell a livelock (busy mutation without
    /// progress) from a deadlock (no mutation at all): spinning on a held
    /// lock — failed CASes, re-`Or`ing an already-set bit — changes
    /// nothing and therefore registers no mutation.
    #[inline]
    pub fn mutations(&self) -> u64 {
        self.mutations
    }

    /// Number of words of capacity.
    pub fn capacity(&self) -> usize {
        self.words.len()
    }

    /// Words currently allocated (including the reserved word 0).
    pub fn allocated(&self) -> usize {
        self.brk as usize
    }

    /// Allocates `n` zero-initialised words and returns their base address.
    ///
    /// Allocations are aligned to 128-byte coalescing segments, as
    /// `cudaMalloc` guarantees (it aligns to at least 256 bytes).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] if the region does not fit.
    pub fn alloc(&mut self, n: u32) -> Result<Addr, SimError> {
        let seg = crate::coalesce::SEGMENT_WORDS;
        let base = self.brk.div_ceil(seg) * seg;
        let end = base.checked_add(n).ok_or(SimError::OutOfMemory { requested: n as usize })?;
        if end as usize > self.words.len() {
            return Err(SimError::OutOfMemory { requested: n as usize });
        }
        self.brk = end;
        Ok(Addr(base))
    }

    /// Reads the word at `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of bounds (an address never produced by
    /// [`alloc`](Self::alloc)).
    #[inline]
    pub fn read(&self, a: Addr) -> u32 {
        self.words[a.index()]
    }

    /// Writes `v` to the word at `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of bounds.
    #[inline]
    pub fn write(&mut self, a: Addr, v: u32) {
        let slot = &mut self.words[a.index()];
        self.mutations += u64::from(*slot != v);
        *slot = v;
    }

    /// Fills `n` words starting at `a` with `v`.
    pub fn fill(&mut self, a: Addr, n: u32, v: u32) {
        let s = a.index();
        self.words[s..s + n as usize].fill(v);
    }

    /// Copies a host slice into device memory at `a`.
    pub fn write_slice(&mut self, a: Addr, data: &[u32]) {
        let s = a.index();
        self.words[s..s + data.len()].copy_from_slice(data);
    }

    /// Copies `n` device words starting at `a` to a host vector.
    pub fn read_slice(&self, a: Addr, n: u32) -> Vec<u32> {
        let s = a.index();
        self.words[s..s + n as usize].to_vec()
    }

    /// Compare-and-swap: if `*a == cmp`, store `new`. Returns the old value.
    #[inline]
    pub fn atomic_cas(&mut self, a: Addr, cmp: u32, new: u32) -> u32 {
        let old = self.words[a.index()];
        if old == cmp {
            self.mutations += u64::from(old != new);
            self.words[a.index()] = new;
        }
        old
    }

    /// Applies `op` with operand `v` at `a`; returns the old value.
    #[inline]
    pub fn atomic_rmw(&mut self, op: AtomicOp, a: Addr, v: u32) -> u32 {
        let slot = &mut self.words[a.index()];
        let old = *slot;
        *slot = match op {
            AtomicOp::Add => old.wrapping_add(v),
            AtomicOp::Or => old | v,
            AtomicOp::And => old & v,
            AtomicOp::Exch => v,
            AtomicOp::Max => old.max(v),
        };
        self.mutations += u64::from(*slot != old);
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_disjoint_zeroed_regions() {
        let mut m = GlobalMemory::new(128);
        let a = m.alloc(8).unwrap();
        let b = m.alloc(8).unwrap();
        assert_ne!(a, b);
        assert!(b.0 >= a.0 + 8);
        for i in 0..8 {
            assert_eq!(m.read(a.offset(i)), 0);
        }
    }

    #[test]
    fn alloc_never_returns_null() {
        let mut m = GlobalMemory::new(128);
        let a = m.alloc(1).unwrap();
        assert_ne!(a, Addr::NULL);
    }

    #[test]
    fn out_of_memory() {
        let mut m = GlobalMemory::new(128);
        assert!(m.alloc(2).is_ok());
        let err = m.alloc(100).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
    }

    #[test]
    fn allocations_are_segment_aligned() {
        let mut m = GlobalMemory::new(256);
        let a = m.alloc(5).unwrap();
        let b = m.alloc(5).unwrap();
        assert_eq!(a.0 % crate::coalesce::SEGMENT_WORDS, 0);
        assert_eq!(b.0 % crate::coalesce::SEGMENT_WORDS, 0);
        assert_ne!(a.segment(), b.segment());
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = GlobalMemory::new(128);
        let a = m.alloc(4).unwrap();
        m.write(a.offset(2), 0xdead_beef);
        assert_eq!(m.read(a.offset(2)), 0xdead_beef);
    }

    #[test]
    fn cas_success_and_failure() {
        let mut m = GlobalMemory::new(128);
        let a = m.alloc(1).unwrap();
        assert_eq!(m.atomic_cas(a, 0, 7), 0);
        assert_eq!(m.read(a), 7);
        // Failing CAS leaves the value untouched and reports the old value.
        assert_eq!(m.atomic_cas(a, 0, 9), 7);
        assert_eq!(m.read(a), 7);
    }

    #[test]
    fn rmw_semantics() {
        let mut m = GlobalMemory::new(128);
        let a = m.alloc(1).unwrap();
        assert_eq!(m.atomic_rmw(AtomicOp::Add, a, 5), 0);
        assert_eq!(m.atomic_rmw(AtomicOp::Or, a, 0b1010), 5);
        assert_eq!(m.read(a), 5 | 0b1010);
        assert_eq!(m.atomic_rmw(AtomicOp::Exch, a, 42), 5 | 0b1010);
        assert_eq!(m.atomic_rmw(AtomicOp::And, a, 0b10), 42);
        assert_eq!(m.read(a), 42 & 0b10);
        assert_eq!(m.atomic_rmw(AtomicOp::Max, a, 100), 2);
        assert_eq!(m.read(a), 100);
    }

    #[test]
    fn add_wraps() {
        let mut m = GlobalMemory::new(128);
        let a = m.alloc(1).unwrap();
        m.write(a, u32::MAX);
        assert_eq!(m.atomic_rmw(AtomicOp::Add, a, 1), u32::MAX);
        assert_eq!(m.read(a), 0);
    }

    #[test]
    fn slice_roundtrip() {
        let mut m = GlobalMemory::new(128);
        let a = m.alloc(8).unwrap();
        m.write_slice(a, &[1, 2, 3, 4]);
        assert_eq!(m.read_slice(a, 4), vec![1, 2, 3, 4]);
        m.fill(a, 4, 9);
        assert_eq!(m.read_slice(a, 5), vec![9, 9, 9, 9, 0]);
    }

    #[test]
    fn addr_segment() {
        assert_eq!(Addr(0).segment(), 0);
        assert_eq!(Addr(31).segment(), 0);
        assert_eq!(Addr(32).segment(), 1);
    }
}
