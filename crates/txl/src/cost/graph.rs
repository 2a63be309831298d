//! The pairwise static conflict graph over a program's `atomic` blocks.
//!
//! An edge's exact rate counts the ordered distinct-thread pairs `(i, j)`
//! whose footprints may conflict, thread `i` running block `a` and thread
//! `j` block `b`. Threads with equal rows form one group
//! ([`PerThread`]), so the walk runs over each block's distinct rows and
//! weighs a conflicting pair of rows by its groups' sizes. Hull `[l, h]`
//! of row `y` overlaps hull `q` of row `x` iff `l <= q.hi` and
//! `h >= q.lo`: a prefix of `b`'s rows sorted by `l`, ANDed with a suffix
//! of them sorted by `h`. `b` keeps one bitset per cut point
//! ([`HullIndex`]), and walking `a`'s rows in their own bound orders
//! against `b`'s sorted bounds finds every row's two cut points in one
//! linear merge each ([`or_overlapping`]).

use super::{BlockData, PerThread};
use crate::footprint::Interval;

/// One may-conflict edge between two blocks (`a <= b`; `a == b` is a
/// self-edge: two *different threads* running the same block).
#[derive(Clone, Debug)]
pub struct ConflictEdge {
    /// First endpoint (index into [`StaticProfile::tx`](super::StaticProfile::tx)).
    pub a: usize,
    /// Second endpoint.
    pub b: usize,
    /// Fraction of ordered distinct thread pairs `(i, j)` whose exact
    /// footprints may conflict (1.0 under the symbolic fallback).
    pub rate: f64,
    /// Size of the symbolic touched-hull intersection across the
    /// conflicting arrays — the overlap weight.
    pub overlap: u64,
    /// Names of the arrays the blocks may conflict on.
    pub arrays: Vec<String>,
}

/// The pairwise static conflict graph.
#[derive(Clone, Debug, Default)]
pub struct ConflictGraph {
    /// Number of nodes (= `StaticProfile::tx.len()`).
    pub nodes: usize,
    /// May-conflict edges, lexicographic by `(a, b)`.
    pub edges: Vec<ConflictEdge>,
}

impl ConflictGraph {
    /// Whether blocks `a` and `b` share an edge (order-insensitive).
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        let (a, b) = (a.min(b), a.max(b));
        self.edges.iter().any(|e| e.a == a && e.b == b)
    }

    /// Number of edges incident to `n` (a self-edge counts once).
    pub fn degree(&self, n: usize) -> usize {
        self.edges.iter().filter(|e| e.a == n || e.b == n).count()
    }

    /// Sum of incident edge rates — the contention score TL006
    /// thresholds on. Folded from `0.0`: an empty `f64` sum is `-0.0`,
    /// which would print as `-0.000`.
    pub fn weighted_degree(&self, n: usize) -> f64 {
        self.edges.iter().filter(|e| e.a == n || e.b == n).fold(0.0, |sum, e| sum + e.rate)
    }
}

/// `(i, j)` for each parameter `i` of `a` whose name `b` also takes, `j`
/// being `b`'s first parameter of that name: the arrays two blocks may
/// conflict on, resolved once per block pair.
fn shared_params(a: &BlockData, b: &BlockData) -> Vec<(usize, usize)> {
    a.param_names
        .iter()
        .enumerate()
        .filter_map(|(i, name)| b.param_names.iter().position(|n| n == name).map(|j| (i, j)))
        .collect()
}

/// `bound << 32 | group`: entries sort by bound, then group.
fn pack(bound: u32, group: usize) -> u64 {
    u64::from(bound) << 32 | group as u64
}

fn group_of(entry: u64) -> usize {
    entry as u32 as usize
}

/// The distinct rows of one block with a hull in one (parameter,
/// read|write), sorted by each bound, as [`pack`]ed entries. Rows with no
/// hull are in neither order.
struct Hulls {
    by_lo: Vec<u64>,
    by_hi: Vec<u64>,
}

impl Hulls {
    /// Orders `hulls[g]`, distinct row `g`'s hull.
    fn new(hulls: impl Iterator<Item = Option<Interval>>) -> Hulls {
        let n = hulls.size_hint().0;
        let mut h = Hulls { by_lo: Vec::with_capacity(n), by_hi: Vec::with_capacity(n) };
        for (g, iv) in hulls.enumerate().filter_map(|(g, h)| Some((g, h?))) {
            h.by_lo.push(pack(iv.lo, g));
            h.by_hi.push(pack(iv.hi, g));
        }
        h.by_lo.sort_unstable();
        h.by_hi.sort_unstable();
        h
    }

    fn is_empty(&self) -> bool {
        self.by_lo.is_empty()
    }
}

/// One block's bound orders, per parameter.
struct ParamHulls {
    read: Hulls,
    write: Hulls,
}

fn block_hulls(pt: &PerThread) -> Vec<ParamHulls> {
    (0..pt.nparams)
        .map(|p| ParamHulls {
            read: Hulls::new(pt.rows().map(|fps| fps[p].read)),
            write: Hulls::new(pt.rows().map(|fps| fps[p].write)),
        })
        .collect()
}

/// The cut-point bitsets over one [`Hulls`], `words` words a row: prefix
/// row `k` holds the groups of `by_lo[..k]`, suffix row `k` those of
/// `by_hi[k..]`. Prefix row 0 and the last suffix row are empty.
#[derive(Default)]
struct HullIndex {
    prefix: Vec<u64>,
    suffix: Vec<u64>,
    /// Whether the tables are built for the block being met.
    ready: bool,
}

impl HullIndex {
    /// Builds the tables for `h` in this index's buffers, unless they
    /// are ready.
    fn ensure(&mut self, h: &Hulls, words: usize) {
        if self.ready {
            return;
        }
        self.ready = true;
        let rows = h.by_lo.len() + 1;
        self.prefix.clear();
        self.prefix.resize(rows * words, 0);
        for (k, &e) in h.by_lo.iter().enumerate() {
            let (done, next) = self.prefix.split_at_mut((k + 1) * words);
            next[..words].copy_from_slice(&done[k * words..]);
            let g = group_of(e);
            next[g / 64] |= 1 << (g % 64);
        }
        self.suffix.clear();
        self.suffix.resize(rows * words, 0);
        for (k, &e) in h.by_hi.iter().enumerate().rev() {
            let (row, after) = self.suffix.split_at_mut((k + 1) * words);
            let row = &mut row[k * words..];
            row.copy_from_slice(&after[..words]);
            let g = group_of(e);
            row[g / 64] |= 1 << (g % 64);
        }
    }
}

/// One block's cut-point bitsets, per parameter.
#[derive(Default)]
struct ParamIndex {
    read: HullIndex,
    write: HullIndex,
}

/// Readies `out` to index a block of `nparams` parameters, keeping its
/// buffers: each table is built the first time a pair queries it.
fn reset_index(out: &mut Vec<ParamIndex>, nparams: usize) {
    out.resize_with(nparams, ParamIndex::default);
    for ix in out.iter_mut() {
        ix.read.ready = false;
        ix.write.ready = false;
    }
}

/// One block pair's working set, reused from pair to pair: each of `a`'s
/// distinct rows' two cut points, and the `rows × words` matrix whose row
/// `x` collects the distinct rows of `b` that may conflict with `a`'s row
/// `x`. Sized by distinct rows, never by threads.
#[derive(Default)]
struct Walk {
    words: usize,
    starts: Vec<u32>,
    ends: Vec<u32>,
    matrix: Vec<u64>,
}

impl Walk {
    /// Readies the buffers for `rows` queried rows against `indexed`
    /// indexed ones, the matrix cleared.
    fn reset(&mut self, rows: usize, indexed: usize) {
        self.words = indexed.div_ceil(64);
        self.starts.resize(rows, 0);
        self.ends.resize(rows, 0);
        self.matrix.clear();
        self.matrix.resize(rows * self.words, 0);
    }

    /// Whether `a`'s row `x` may conflict with `b`'s row `y`.
    fn hit(&self, x: usize, y: usize) -> bool {
        self.matrix[x * self.words + y / 64] >> (y % 64) & 1 == 1
    }
}

/// ORs into matrix row `x`, for each row `x` of `qs`, the rows of `hs`
/// (indexed as `index`, built here if not ready) whose hull overlaps row
/// `x`'s.
///
/// Row `x` gains `prefix[s] & suffix[e]`, where `s` counts `hs`' lower
/// bounds `<= q.hi` and `e` its upper bounds `< q.lo`. Walking `qs.by_hi`
/// up `hs.by_lo`, and `qs.by_lo` up `hs.by_hi`, finds every `s` and `e`
/// in one merge each: `O(|qs| + |hs|)` steps, then `words` ANDs a row.
/// A hull that overlaps nothing meets an empty row, so no row branches.
fn or_overlapping(qs: &Hulls, hs: &Hulls, index: &mut HullIndex, walk: &mut Walk) {
    if qs.is_empty() || hs.is_empty() {
        return;
    }
    let (words, n) = (walk.words, hs.by_lo.len());
    index.ensure(hs, words);
    let mut s = 0;
    for &q in &qs.by_hi {
        // `lo <= q.hi` iff `lo`'s entry is at most `q.hi << 32 | MAX`.
        let hi = q | u64::from(u32::MAX);
        while s < n && hs.by_lo[s] <= hi {
            s += 1;
        }
        walk.starts[group_of(q)] = s as u32;
    }
    let mut e = 0;
    for &q in &qs.by_lo {
        // `hi < q.lo` iff `hi`'s entry is below `q.lo << 32`.
        let lo = q & !u64::from(u32::MAX);
        while e < n && hs.by_hi[e] < lo {
            e += 1;
        }
        walk.ends[group_of(q)] = e as u32;
    }
    for &q in &qs.by_lo {
        let x = group_of(q);
        let prefix = &index.prefix[walk.starts[x] as usize * words..][..words];
        let suffix = &index.suffix[walk.ends[x] as usize * words..][..words];
        let row = &mut walk.matrix[x * words..][..words];
        for ((m, p), s) in row.iter_mut().zip(prefix).zip(suffix) {
            *m |= p & s;
        }
    }
}

/// One block's grouped rows and their bound orders.
type Side<'a> = (&'a PerThread, &'a [ParamHulls]);

/// The exact edge rate's numerator: ordered distinct-thread pairs
/// `(i, j)` where thread `i` running block `a` and thread `j` running
/// block `b` (its orders indexed as `ib`) may conflict on a `shared`
/// parameter pair. The same integer as testing
/// [`ParamFootprint::conflicts`](crate::footprint::ParamFootprint::conflicts)
/// on all `t·(t−1)` pairs: each conflicting pair of distinct rows counts
/// the product of its groups' sizes, less the threads whose own two rows
/// conflict. `O(ra·⌈rb/64⌉·|shared| + t)` for `ra` and `rb` distinct rows.
fn conflicting_pairs(
    (pa, ha): Side,
    (pb, hb): Side,
    ib: &mut [ParamIndex],
    shared: &[(usize, usize)],
    walk: &mut Walk,
) -> u64 {
    walk.reset(pa.groups(), pb.groups());
    for &(p, q) in shared {
        let (x, y, iy) = (&ha[p], &hb[q], &mut ib[q]);
        or_overlapping(&x.write, &y.read, &mut iy.read, walk);
        or_overlapping(&x.write, &y.write, &mut iy.write, walk);
        or_overlapping(&x.read, &y.write, &mut iy.write, walk);
    }
    let weighed: u64 = walk
        .matrix
        .chunks_exact(walk.words)
        .zip(&pa.weight)
        .map(|(row, &wa)| {
            // Every row of `b` distinct: each set bit weighs 1.
            let hits: u64 = if pb.all_distinct() {
                row.iter().map(|w| u64::from(w.count_ones())).sum()
            } else {
                let mut hits = 0;
                for (k, &word) in row.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        hits += pb.weight[k * 64 + bits.trailing_zeros() as usize];
                        bits &= bits - 1;
                    }
                }
                hits
            };
            wa * hits
        })
        .sum();
    let same_thread =
        pa.group.iter().zip(&pb.group).filter(|&(&x, &y)| walk.hit(x as usize, y as usize)).count();
    weighed - same_thread as u64
}

/// The conflict graph of `blocks` at `threads` threads.
pub(super) fn build_graph(blocks: &[BlockData], threads: u32) -> ConflictGraph {
    let mut edges = Vec::new();
    let t = threads as usize;
    // Two blocks of the same thread execute sequentially and cannot
    // conflict; only distinct-thread pairs matter.
    if t < 2 {
        return ConflictGraph { nodes: blocks.len(), edges };
    }
    // Every block's bound orders stay alive for the blocks it meets as
    // `a`; the bitsets exist for one `b` at a time, each table built
    // when a pair first queries it, in buffers reused from one `b` to
    // the next. Every buffer is sized by distinct rows: past
    // `MAX_EXACT_THREADS` no block has any and nothing here grows with
    // `t`.
    let hulls: Vec<Option<Vec<ParamHulls>>> =
        blocks.iter().map(|bl| bl.per_thread.as_ref().map(block_hulls)).collect();
    let mut ib = Vec::new();
    let mut walk = Walk::default();
    for (b, bb) in blocks.iter().enumerate() {
        reset_index(&mut ib, bb.param_names.len());
        for (a, ba) in blocks.iter().enumerate().take(b + 1) {
            let shared = shared_params(ba, bb);
            if !shared.iter().any(|&(i, j)| ba.sym[i].conflicts(&bb.sym[j])) {
                continue;
            }
            let rate = match (&ba.per_thread, &hulls[a], &bb.per_thread, &hulls[b]) {
                (Some(pa), Some(ha), Some(pb), Some(hb)) => {
                    let hits = conflicting_pairs((pa, ha), (pb, hb), &mut ib, &shared, &mut walk);
                    hits as f64 / (t as f64 * (t as f64 - 1.0))
                }
                _ => 1.0,
            };
            if rate <= 0.0 {
                continue;
            }
            let mut arrays = Vec::new();
            let mut overlap = 0u64;
            for &(i, j) in &shared {
                let (fp, other) = (&ba.sym[i], &bb.sym[j]);
                if fp.conflicts(other) {
                    arrays.push(ba.param_names[i].clone());
                    if let (Some(x), Some(y)) = (fp.touched(), other.touched()) {
                        if x.overlaps(y) {
                            let lo = x.lo.max(y.lo) as u64;
                            let hi = x.hi.min(y.hi) as u64;
                            overlap = overlap.saturating_add(hi - lo + 1);
                        }
                    }
                }
            }
            edges.push(ConflictEdge { a, b, rate, overlap, arrays });
        }
    }
    edges.sort_by_key(|e| (e.a, e.b));
    ConflictGraph { nodes: blocks.len(), edges }
}

#[cfg(test)]
mod tests {
    use super::super::{
        analyze_source, collect_blocks, dedupe_atomics, render_text, write_profile_json, CostConfig,
    };
    use super::*;
    use crate::footprint::{kernel_footprint, ParamFootprint};
    use crate::token::Span;
    use gpu_sim::JsonWriter;

    /// The programs `txl_passes` analyzes: the 17 lint fixtures, and
    /// copies of `tm_verify::STRIPES_SRC` and `tm_serve::TXL_BUMP` (crates
    /// that depend on this one).
    const CORPUS: [(&str, &str); 19] = [
        ("divergent_atomic_bug", include_str!("../../tests/fixtures/divergent_atomic_bug.txl")),
        ("divergent_atomic_clean", include_str!("../../tests/fixtures/divergent_atomic_clean.txl")),
        ("divergent_atomic_fixed", include_str!("../../tests/fixtures/divergent_atomic_fixed.txl")),
        ("footprint_order_bug", include_str!("../../tests/fixtures/footprint_order_bug.txl")),
        ("footprint_order_clean", include_str!("../../tests/fixtures/footprint_order_clean.txl")),
        ("footprint_order_fixed", include_str!("../../tests/fixtures/footprint_order_fixed.txl")),
        ("overflow_writeset_bug", include_str!("../../tests/fixtures/overflow_writeset_bug.txl")),
        (
            "overflow_writeset_clean",
            include_str!("../../tests/fixtures/overflow_writeset_clean.txl"),
        ),
        (
            "overflow_writeset_fixed",
            include_str!("../../tests/fixtures/overflow_writeset_fixed.txl"),
        ),
        ("unsorted_locks_bug", include_str!("../../tests/fixtures/unsorted_locks_bug.txl")),
        ("unsorted_locks_clean", include_str!("../../tests/fixtures/unsorted_locks_clean.txl")),
        ("unsorted_locks_fixed", include_str!("../../tests/fixtures/unsorted_locks_fixed.txl")),
        ("unwakeable_retry_bug", include_str!("../../tests/fixtures/unwakeable_retry_bug.txl")),
        ("unwakeable_retry_clean", include_str!("../../tests/fixtures/unwakeable_retry_clean.txl")),
        ("weak_isolation_bug", include_str!("../../tests/fixtures/weak_isolation_bug.txl")),
        ("weak_isolation_clean", include_str!("../../tests/fixtures/weak_isolation_clean.txl")),
        ("weak_isolation_fixed", include_str!("../../tests/fixtures/weak_isolation_fixed.txl")),
        (
            "STRIPES_SRC",
            "kernel stripes(data: array) {
    let base = tid() * 4;
    atomic { data[base] = data[base] + 1; }
    atomic { data[base + 1] = data[base + 1] + 1; }
    atomic { data[base + 2] = data[base + 2] + 1; }
}",
        ),
        (
            "TXL_BUMP",
            "
kernel bump(args: array, data: array) {
    let k = args[tid()];
    atomic {
        data[k] = data[k] + 1;
    }
}
",
        ),
    ];

    // -- Exactness gate: the walk's count against the pairwise definition.

    fn fp_for_name<'a>(
        names: &[String],
        fps: &'a [ParamFootprint],
        name: &str,
    ) -> Option<&'a ParamFootprint> {
        names.iter().position(|n| n == name).map(|i| &fps[i])
    }

    /// May-conflict over the shared parameter names of two footprint sets.
    fn sets_conflict(
        an: &[String],
        a: &[ParamFootprint],
        bn: &[String],
        b: &[ParamFootprint],
    ) -> bool {
        an.iter()
            .enumerate()
            .any(|(i, name)| fp_for_name(bn, b, name).is_some_and(|other| a[i].conflicts(other)))
    }

    /// Each thread's row of `table`, in `tid` order.
    fn thread_rows(table: &PerThread) -> impl Iterator<Item = &[ParamFootprint]> {
        table.group.iter().map(|&g| table.row(g as usize))
    }

    /// A block's per-thread rows grouped again, apart from
    /// [`PerThread::push`]: each distinct row, in first-seen order, with
    /// the number of threads holding it.
    struct Rows<'a> {
        table: &'a PerThread,
        distinct: Vec<(&'a [ParamFootprint], u64)>,
    }

    impl<'a> Rows<'a> {
        fn new(block: &'a BlockData) -> Rows<'a> {
            let table = block.per_thread.as_ref().unwrap();
            let mut ids = std::collections::HashMap::new();
            let mut distinct: Vec<(&[ParamFootprint], u64)> = Vec::new();
            for row in thread_rows(table) {
                let id = *ids.entry(row).or_insert_with(|| {
                    distinct.push((row, 0));
                    distinct.len() - 1
                });
                distinct[id].1 += 1;
            }
            Rows { table, distinct }
        }
    }

    /// The exact rate's definition: every ordered distinct-thread pair,
    /// every parameter looked up by name. Threads with equal rows are
    /// tested once, as a group: each pair of conflicting rows counts the
    /// product of its groups' sizes, less the threads that hold both. A
    /// block met with itself tests each unordered pair of rows once, as
    /// the conflict test is symmetric, and counts it both ways.
    fn pairwise_hits(ba: &BlockData, ra: &Rows, bb: &BlockData, rb: &Rows) -> u64 {
        // Each of `a`'s parameters, with `b`'s footprint column of its name.
        let by_name: Vec<(usize, usize)> = (0..ra.table.nparams)
            .filter_map(|i| {
                bb.param_names.iter().position(|n| *n == ba.param_names[i]).map(|j| (i, j))
            })
            .collect();
        let conflict = |fi: &[ParamFootprint], fj: &[ParamFootprint]| {
            by_name.iter().any(|&(p, q)| fi[p].conflicts(&fj[q]))
        };
        let same = std::ptr::eq(ra, rb);
        let mut hits = 0u64;
        for (x, &(fi, ni)) in ra.distinct.iter().enumerate() {
            let from = if same { x } else { 0 };
            for (y, &(fj, nj)) in rb.distinct.iter().enumerate().skip(from) {
                if conflict(fi, fj) {
                    hits += ni * nj * if same && y != x { 2 } else { 1 };
                }
            }
        }
        let same_thread = thread_rows(ra.table)
            .zip(thread_rows(rb.table))
            .filter(|(fi, fj)| conflict(fi, fj))
            .count();
        hits - same_thread as u64
    }

    /// The conflict graph by name lookups, given each block pair's
    /// [`pairwise_hits`].
    fn reference_graph(
        blocks: &[BlockData],
        threads: u32,
        hits: impl Fn(usize, usize) -> u64,
    ) -> Vec<(usize, usize, u64, u64, String)> {
        let t = threads as f64;
        let mut edges = Vec::new();
        for a in 0..blocks.len() {
            for b in a..blocks.len() {
                let (ba, bb) = (&blocks[a], &blocks[b]);
                if threads < 2 || !sets_conflict(&ba.param_names, &ba.sym, &bb.param_names, &bb.sym)
                {
                    continue;
                }
                let rate = match ba.per_thread {
                    Some(_) => hits(a, b) as f64 / (t * (t - 1.0)),
                    None => 1.0,
                };
                if rate <= 0.0 {
                    continue;
                }
                let (mut arrays, mut overlap) = (Vec::new(), 0u64);
                for (name, fp) in ba.named_sym() {
                    let Some(other) = fp_for_name(&bb.param_names, &bb.sym, name) else { continue };
                    if fp.conflicts(other) {
                        arrays.push(name);
                        if let (Some(x), Some(y)) = (fp.touched(), other.touched()) {
                            if x.overlaps(y) {
                                overlap += x.hi.min(y.hi) as u64 - x.lo.max(y.lo) as u64 + 1;
                            }
                        }
                    }
                }
                edges.push((a, b, rate.to_bits(), overlap, arrays.join(",")));
            }
        }
        edges
    }

    const GATE_THREADS: [u32; 9] = [1, 2, 3, 63, 64, 65, 255, 256, 512];

    /// Asserts, on every block pair, that [`conflicting_pairs`] equals
    /// [`pairwise_hits`]; returns the counts, `[a][b]` for `a <= b`.
    fn assert_counts(name: &str, blocks: &[BlockData], threads: u32) -> Vec<Vec<u64>> {
        let mut walk = Walk::default();
        let tables: Vec<&PerThread> =
            blocks.iter().map(|bl| bl.per_thread.as_ref().unwrap()).collect();
        let hulls: Vec<_> = tables.iter().map(|pt| block_hulls(pt)).collect();
        let rows: Vec<_> = blocks.iter().map(Rows::new).collect();
        let mut ib = Vec::new();
        let mut slow = vec![vec![0u64; blocks.len()]; blocks.len()];
        for (b, bb) in blocks.iter().enumerate() {
            reset_index(&mut ib, bb.param_names.len());
            for (a, ba) in blocks.iter().enumerate().take(b + 1) {
                let shared = shared_params(ba, bb);
                let fast = conflicting_pairs(
                    (tables[a], &hulls[a]),
                    (tables[b], &hulls[b]),
                    &mut ib,
                    &shared,
                    &mut walk,
                );
                slow[a][b] = pairwise_hits(ba, &rows[a], bb, &rows[b]);
                assert_eq!(fast, slow[a][b], "{name}: blocks {a}, {b} at {threads} threads");
            }
        }
        slow
    }

    /// Asserts, at every [`GATE_THREADS`] count, [`assert_counts`], and
    /// that the graph equals [`reference_graph`] with rates compared bit
    /// for bit.
    fn assert_exact(name: &str, src: &str) {
        let program = crate::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for threads in GATE_THREADS {
            let blocks = collect_blocks(&program, threads);
            let slow = assert_counts(name, &blocks, threads);
            let graph: Vec<_> = build_graph(&blocks, threads)
                .edges
                .iter()
                .map(|e| (e.a, e.b, e.rate.to_bits(), e.overlap, e.arrays.join(",")))
                .collect();
            let want = reference_graph(&blocks, threads, |a, b| slow[a][b]);
            assert_eq!(graph, want, "{name} at {threads} threads");
        }
    }

    #[test]
    fn exact_rates_match_pairwise_on_the_fixture_corpus() {
        for (name, src) in CORPUS {
            assert_exact(name, src);
        }
    }

    /// No rendered profile holds a negative number, so no `-0.000`: a
    /// block without edges has degree `0.000`, and a program without
    /// blocks ranks every variant at `0`.
    #[test]
    fn no_output_prints_a_negative_zero() {
        for (name, src) in CORPUS {
            for threads in [1, 2, 3, 256] {
                let cfg = CostConfig { threads, write_set_capacity: None };
                let profile = analyze_source(src, &cfg).unwrap();
                assert!(
                    profile.tx.iter().all(|t| t.conflict_degree.is_sign_positive())
                        && profile.ranking.iter().all(|v| v.predicted_cycles.is_sign_positive()),
                    "{name} at {threads} threads"
                );
                let mut json = JsonWriter::new();
                json.begin_object();
                write_profile_json(&mut json, &profile);
                json.end_object();
                for out in [render_text(&profile), json.finish()] {
                    let negative =
                        out.as_bytes().windows(2).any(|w| w[0] == b'-' && w[1].is_ascii_digit());
                    assert!(!negative, "{name} at {threads} threads:\n{out}");
                }
            }
        }
    }

    #[test]
    fn exact_rates_match_pairwise_on_edge_shapes() {
        // The disjoint stripes and the data-dependent bump are in CORPUS.
        let programs = [
            // A read-only side against a write-only side, by name.
            (
                "read_vs_write",
                "kernel reader(table: array, out: array) {
                     let x = 0;
                     atomic { x = table[tid() % 8] + table[(tid() + 3) % 8]; }
                     out[tid()] = x;
                 }
                 kernel writer(table: array) {
                     atomic { table[tid() % 4 + 2] = 1; }
                 }",
            ),
            // `N - tid` wraps below zero past N: exact points, then TOP.
            (
                "reversed",
                "kernel rev(a: array) {
                     atomic { a[100 - tid()] = a[tid() % 16]; }
                 }",
            ),
            // A stride and a residue class, with a declared length
            // clamping the stride.
            (
                "modular",
                "kernel modular(a: array[40], b: array) {
                     atomic { a[tid() * 3] = b[tid() % 5]; }
                     atomic { b[tid() % 7] = a[tid() % 3]; }
                 }",
            ),
            // One name at different parameter positions in two kernels,
            // and a parameter only one kernel takes.
            (
                "positions",
                "kernel first(x: array, shared: array) {
                     atomic { shared[tid() % 4] = x[tid()]; }
                 }
                 kernel second(y: array, z: array, shared: array, x: array) {
                     atomic { x[tid() % 9] = shared[tid() / 2] + y[0]; }
                     atomic { z[0] = shared[3]; }
                 }",
            ),
            // A loop-widened hull and a block without arrays.
            (
                "widened",
                "kernel widened(a: array) {
                     let i = tid();
                     atomic {
                         while i < 1000 { a[i] = 0; i = i * 2 + 1; }
                     }
                     let s = 0;
                     atomic { s = s + 1; }
                     a[0] = s;
                 }",
            ),
        ];
        for (name, src) in programs {
            assert_exact(name, src);
        }
    }

    /// Past the exact limit every rate is the symbolic fallback's 1.0,
    /// and nothing is sized by the thread count: at `u32::MAX` threads a
    /// `t × ⌈t/64⌉` matrix would be some 2.3e18 bytes.
    #[test]
    fn symbolic_fallback_at_large_thread_counts() {
        let src = "kernel k(a: array, b: array) {
                       atomic { a[tid() % 8] = b[tid()]; }
                       atomic { b[tid() * 2] = a[3]; }
                   }";
        let program = crate::compile(src).unwrap();
        for threads in [513, 1 << 20, u32::MAX] {
            let cfg = super::super::CostConfig { threads, write_set_capacity: None };
            let profile = super::super::analyze_program(&program, &cfg);
            let blocks = collect_blocks(&program, threads);
            assert!(blocks.iter().all(|b| b.per_thread.is_none()), "{threads} threads");
            let got: Vec<_> = profile
                .graph
                .edges
                .iter()
                .map(|e| (e.a, e.b, e.rate.to_bits(), e.overlap, e.arrays.join(",")))
                .collect();
            let want = reference_graph(&blocks, threads, |_, _| unreachable!("no exact rows"));
            assert_eq!(got, want, "{threads} threads");
            assert_eq!(got.len(), 3, "{threads} threads: {got:?}");
        }
    }

    /// Seeded hulls — absent, TOP, points and duplicate bounds — walked
    /// as queries against seeded indexed hulls (one distinct row each),
    /// and compared with the brute-force overlap sets.
    #[test]
    fn overlap_walk_matches_brute_force() {
        let mut seed = 0x5eed_u64;
        let mut next = |n: u64| gpu_sim::rng::splitmix64(&mut seed) % n;
        let interval = |next: &mut dyn FnMut(u64) -> u64| match next(8) {
            0 => Interval::TOP,
            1 => Interval::exact(next(16) as u32),
            2 => Interval::new(u32::MAX - next(4) as u32, u32::MAX),
            _ => {
                let lo = next(40) as u32;
                Interval::new(lo, lo + next(12) as u32)
            }
        };
        for n in [1usize, 2, 63, 64, 65, 512] {
            for round in 0..8 {
                let hulls = |next: &mut dyn FnMut(u64) -> u64| -> Vec<Option<Interval>> {
                    (0..n).map(|_| (next(5) != 0).then(|| interval(next))).collect()
                };
                let (queries, indexed) = (hulls(&mut next), hulls(&mut next));
                let (qs, hs) =
                    (Hulls::new(queries.iter().copied()), Hulls::new(indexed.iter().copied()));
                let mut walk = Walk::default();
                walk.reset(n, n);
                let words = walk.words;
                let mut index = HullIndex::default();
                // Bits already set stay set: the walk only ORs.
                let preset = if round % 2 == 0 { 1u64 } else { 0 };
                walk.matrix.fill(preset);
                or_overlapping(&qs, &hs, &mut index, &mut walk);
                for (i, q) in queries.iter().enumerate() {
                    let mut want = vec![preset; words];
                    for (j, h) in indexed.iter().enumerate() {
                        if q.zip(*h).is_some_and(|(q, h)| q.overlaps(h)) {
                            want[j / 64] |= 1 << (j % 64);
                        }
                    }
                    let got = &walk.matrix[i * words..][..words];
                    assert_eq!(got, want, "n={n} round={round} thread {i} query={q:?}");
                }
            }
        }
        // No hulls at all: nothing overlaps, not even TOP.
        let (qs, hs) =
            (Hulls::new([Some(Interval::TOP)].into_iter()), Hulls::new([None].into_iter()));
        let mut walk = Walk::default();
        walk.reset(1, 1);
        or_overlapping(&qs, &hs, &mut HullIndex::default(), &mut walk);
        assert_eq!(walk.matrix, [0]);
    }

    // -- Exactness on a seeded population of generated kernels.

    /// Kernel generator: one splitmix64 stream, as in
    /// `tests/analyze_vs_dynamic.rs`, but with the shapes that make hulls
    /// differ from thread to thread (branches, loops, strides, wraps),
    /// that make runs of threads share a row (`tid() / k`), and kernels
    /// that never read `tid()`.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u32) -> u32 {
            (gpu_sim::rng::splitmix64(&mut self.0) >> 32) as u32 % n
        }

        fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
            xs[self.below(xs.len() as u32) as usize]
        }

        /// An index expression over `tid()`, the locals `i` and `x`.
        fn index(&mut self) -> String {
            match self.below(9) {
                // A hot word every thread touches.
                0 => self.below(4).to_string(),
                // `tid() % k` stripes.
                1 => format!("tid() % {}", 1 + self.below(9)),
                2 => format!("tid() * {} + {}", 1 + self.below(3), self.below(4)),
                3 => format!("(tid() + {}) % {}", self.below(8), 2 + self.below(7)),
                // Wraps below zero past the constant: points, then TOP.
                4 => format!("{} - tid()", 40 + self.below(100)),
                5 => format!("rand({})", 1 + self.below(16)),
                6 => "i".into(),
                // Runs of consecutive threads with one row.
                7 => format!("tid() / {}", 2 + self.below(63)),
                _ => "x".into(),
            }
        }

        /// One access to one of `params`.
        fn access(&mut self, params: &[&str]) -> String {
            let p = self.pick(params);
            let (i, j) = (self.index(), self.index());
            match self.below(3) {
                0 => format!("{p}[{i}] = {p}[{j}] + 1;"),
                1 => format!("x = {p}[{i}];"),
                _ => format!("{p}[{i}] = tid();"),
            }
        }

        /// An `atomic` block of one to three accesses, maybe branching.
        fn atomic(&mut self, params: &[&str]) -> String {
            let mut body = String::new();
            for _ in 0..1 + self.below(2) {
                if self.below(4) == 0 {
                    let (t, e) = (self.access(params), self.access(params));
                    body += &format!("if tid() % {} {{ {t} }} else {{ {e} }} ", 2 + self.below(3));
                } else {
                    body += &self.access(params);
                    body.push(' ');
                }
            }
            format!("atomic {{ {body}}}")
        }

        /// One top-level statement of a kernel.
        fn stmt(&mut self, params: &[&str]) -> String {
            let p = self.pick(params);
            match self.below(7) {
                0 | 1 => self.atomic(params),
                // A bounded loop, its counter in the indices.
                2 => format!(
                    "i = {}; while i < {} {{ {} i = i + 1; }}",
                    self.below(3),
                    2 + self.below(6),
                    self.atomic(params)
                ),
                // An unbounded loop: the trip count is data-dependent.
                3 => format!("while x {{ {} x = {p}[{}]; }}", self.atomic(params), self.index()),
                // A loop the fixpoint widens to TOP.
                4 => {
                    format!("i = tid(); while i < 300 {{ {} i = i * 2 + 1; }}", self.atomic(params))
                }
                5 => format!(
                    "if tid() % {} {{ {} }} else {{ {} }}",
                    2 + self.below(4),
                    self.atomic(params),
                    self.atomic(params)
                ),
                _ => format!("{p}[{}] = tid();", self.index()),
            }
        }

        /// One to two kernels over shared parameter names, at differing
        /// positions, some with a declared length.
        fn program(&mut self) -> String {
            let mut src = String::new();
            for k in 0..1 + self.below(2) {
                let mut params = vec!["a", "b", "c"];
                params.truncate(1 + self.below(3) as usize);
                if self.below(2) == 0 {
                    params.reverse();
                }
                let decls: Vec<String> = params
                    .iter()
                    .map(|p| match self.below(3) {
                        0 => format!("{p}: array[{}]", 8 + self.below(40)),
                        _ => format!("{p}: array"),
                    })
                    .collect();
                let mut body = format!("let i = tid() % {}; let x = 0;", 1 + self.below(4));
                for _ in 0..1 + self.below(2) {
                    body.push(' ');
                    body += &self.stmt(&params);
                }
                // One kernel in four never reads `tid()`: every thread
                // shares one row, from the one-run path.
                if self.below(4) == 0 {
                    let k = self.below(17);
                    let free = if k == 0 { "3".into() } else { format!("rand({k})") };
                    body = body.replace("tid()", &free);
                }
                src += &format!("kernel k{k}({}) {{ {body} }}\n", decls.join(", "));
            }
            src
        }
    }

    /// One kernel's rows by the whole-kernel route: per thread, each
    /// block's footprints, keyed by its span.
    type Route = Vec<Vec<(Span, Vec<ParamFootprint>)>>;

    /// Every kernel's [`Route`] at `threads` threads: [`kernel_footprint`]
    /// at each exact `tid`, its atomics joined by span with
    /// [`dedupe_atomics`].
    fn whole_route(program: &crate::Program, threads: u32) -> Vec<Route> {
        program
            .kernels
            .iter()
            .map(|kernel| {
                (0..threads)
                    .map(|t| {
                        let fp = kernel_footprint(kernel, Interval::exact(t), threads);
                        dedupe_atomics(fp.atomics, kernel.params.len())
                    })
                    .collect()
            })
            .collect()
    }

    /// Asserts that every block's per-thread table holds the first
    /// `threads` rows of `whole`, the [`whole_route`] of its kernel.
    fn assert_rows_match_whole_route(
        name: &str,
        program: &crate::Program,
        blocks: &[BlockData],
        threads: u32,
        whole: &[Route],
    ) {
        for (kernel, whole) in program.kernels.iter().zip(whole) {
            let none = vec![ParamFootprint::default(); kernel.params.len()];
            for bl in blocks.iter().filter(|b| b.kernel == kernel.name) {
                let table = bl.per_thread.as_ref().unwrap();
                assert_eq!(table.group.len(), threads as usize);
                for (t, (got, atomics)) in thread_rows(table).zip(whole).enumerate() {
                    let want = atomics.iter().find(|(s, _)| s.start == bl.span.start);
                    assert_eq!(
                        got,
                        want.map_or(&none[..], |(_, fps)| fps),
                        "{name}: {}#{} thread {t} of {threads}",
                        bl.kernel,
                        bl.index
                    );
                }
            }
        }
    }

    #[test]
    fn exact_rows_and_rates_match_on_generated_kernels() {
        let mut g = Gen(0x7e57_b10c);
        let mut blocks_seen = [0usize; GATE_THREADS.len()];
        // Blocks of tid-free kernels, blocks with a row shared by several
        // threads, and blocks whose every thread has its own row, at 256
        // threads.
        let (mut tid_free, mut heavy, mut distinct) = (0, 0, 0);
        for n in 0..200 {
            let src = g.program();
            let name = format!("generated #{n}:\n{src}");
            let program = crate::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            // `nthreads()` is the one expression whose value depends on the
            // thread count, and no generated kernel has it: a thread's
            // whole-kernel route is the same at every count, so it runs
            // once, at the largest.
            assert!(!src.contains("nthreads"), "{name}");
            let whole = whole_route(&program, GATE_THREADS[GATE_THREADS.len() - 1]);
            for threads in GATE_THREADS {
                let blocks = collect_blocks(&program, threads);
                assert_rows_match_whole_route(&name, &program, &blocks, threads, &whole);
                assert_counts(&name, &blocks, threads);
                blocks_seen[GATE_THREADS.iter().position(|&t| t == threads).unwrap()] +=
                    blocks.len();
                if threads == 256 {
                    for bl in &blocks {
                        let pt = bl.per_thread.as_ref().unwrap();
                        tid_free += usize::from(!program.kernel(&bl.kernel).unwrap().uses_tid);
                        heavy += usize::from(pt.weight.iter().any(|&w| w > 1));
                        distinct += usize::from(pt.all_distinct());
                    }
                }
            }
        }
        assert!(blocks_seen.iter().all(|&b| b > 0), "a count saw no block: {blocks_seen:?}");
        assert!(tid_free > 0 && heavy > 0 && distinct > 0, "{tid_free} {heavy} {distinct}");
    }
}
