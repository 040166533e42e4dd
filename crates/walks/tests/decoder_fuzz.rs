//! Deterministic mutation fuzzing of the walk-index decoder.
//!
//! Every byte string handed to [`WalkIndex::open_mapped`] or
//! [`inspect_index_file`] must yield a value or a *named* error — never a
//! panic — and no single allocation made while decoding may exceed the
//! file's size. The corpus starts from valid RWDIDX4 files (a monolithic
//! index and a weighted layer-range shard, both over `n = 60` nodes) and
//! applies seeded, std-only mutations:
//!
//! * every bit of the fixed header and of the entry table, flipped;
//! * truncation at every section boundary (and one byte either side);
//! * each header field and entry count set to values near `u64::MAX`;
//! * a posting id `>= n`, and hops of `0` and `L + 1`, in both views;
//! * random byte flips anywhere in the file.
//!
//! Each mutated file is **re-sealed** — its CRC-32 trailer rewritten over
//! the mutated content — so the structural checks behind the checksum
//! run instead of the checksum catching everything. The crafted-id and
//! crafted-hop cases must be refused by name: a decoder that trusts the
//! payload under a matching CRC serves an index whose first query indexes
//! out of bounds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rwd_graph::NodeId;
use rwd_walks::crc::crc32;
use rwd_walks::{inspect_index_file, LayerRange, NodeSet, WalkIndex};

/// Records the largest single allocation made while armed, on any thread.
struct MaxAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static MAX_ALLOC: AtomicUsize = AtomicUsize::new(0);

impl MaxAlloc {
    fn note(size: usize) {
        if ARMED.load(Ordering::Relaxed) {
            MAX_ALLOC.fetch_max(size, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// bookkeeping is two relaxed atomics.
unsafe impl GlobalAlloc for MaxAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: MaxAlloc = MaxAlloc;

/// Allocations every decode makes whatever the file holds — the path's C
/// string, an error's boxed message, scoped-thread bookkeeping — stay
/// under this many bytes; the bound checked is `max(file size, FLOOR)`.
const FLOOR: usize = 1024;

/// SplitMix64: a seeded, dependency-free stream of mutation choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Rewrites the CRC-32 trailer over everything before it.
fn reseal(bytes: &mut [u8]) {
    if bytes.len() >= 4 {
        let content = bytes.len() - 4;
        let sum = crc32(&bytes[..content]);
        bytes[content..].copy_from_slice(&sum.to_le_bytes());
    }
}

/// Whether `e` is one of the decoder's named refusals.
fn is_named(e: &std::io::Error) -> bool {
    let msg = e.to_string();
    matches!(
        e.kind(),
        std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
    ) && (msg.contains("walk-index") || msg.contains("memory-map"))
}

/// Where a valid file's parts lie, computed independently of the decoder.
struct Shape {
    n: u32,
    l: u16,
    /// `[layer][section]` byte offsets, sections in file order: inverted
    /// offsets, ids, weights, forward offsets, ids, weights.
    sections: Vec<[usize; 6]>,
    /// Every part's end in file order: magic, fixed header, entry table,
    /// each section, the two aggregate arrays, the trailer.
    boundaries: Vec<usize>,
}

fn shape_of(idx: &WalkIndex) -> Shape {
    let pad8 = |x: usize| x.div_ceil(8) * 8;
    let n = idx.n();
    let mut at = 56;
    let mut boundaries = vec![8, 56];
    at += 8 * idx.r();
    boundaries.push(at);
    let mut sections = Vec::new();
    for layer in 0..idx.r() {
        let e: usize = (0..n as u32)
            .map(|v| idx.postings(layer, NodeId(v)).len())
            .sum();
        let mut starts = [0; 6];
        for (slot, bytes) in [(n + 1) * 4, e * 4, e * 2, (n + 1) * 4, e * 4, e * 2]
            .into_iter()
            .enumerate()
        {
            starts[slot] = at;
            at += pad8(bytes);
            boundaries.push(at);
        }
        sections.push(starts);
    }
    for _ in 0..2 {
        at += pad8(n * 8);
        boundaries.push(at);
    }
    boundaries.push(at + 4);
    Shape {
        n: n as u32,
        l: idx.l() as u16,
        sections,
        boundaries,
    }
}

/// Runs both readers over `bytes` and checks the contract; returns
/// whether the opener accepted the file.
fn check(dir: &Path, bytes: &[u8], what: &str) -> bool {
    let path = dir.join("mutant.rwdidx");
    std::fs::write(&path, bytes).unwrap();
    let bound = bytes.len().max(FLOOR);
    let decode = |f: &dyn Fn() -> Result<(), std::io::Error>| {
        MAX_ALLOC.store(0, Ordering::Relaxed);
        ARMED.store(true, Ordering::Relaxed);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        ARMED.store(false, Ordering::Relaxed);
        let peak = MAX_ALLOC.load(Ordering::Relaxed);
        let out = out.unwrap_or_else(|_| panic!("{what}: the decoder panicked"));
        assert!(
            peak <= bound,
            "{what}: allocated {peak} bytes at once for a {}-byte file",
            bytes.len()
        );
        out
    };
    let open = decode(&|| WalkIndex::open_mapped(&path).map(|_| ()));
    if open.is_ok() {
        // Accepted input: both views must serve queries without a panic
        // (a resealed payload flip may make the answers wrong, not unsafe).
        let idx = WalkIndex::open_mapped(&path).unwrap();
        let set = NodeSet::from_nodes(idx.n(), [NodeId(0)]);
        assert_eq!(idx.estimate_hit_times(&set).len(), idx.n(), "{what}");
        for v in 0..idx.n() as u32 {
            idx.point_hit_time(NodeId(v), &set);
        }
    }
    if let Err(e) = &open {
        assert!(is_named(e), "{what}: unnamed open error {e:?}");
    }
    let inspect = decode(&|| inspect_index_file(&path).map(|_| ()));
    if let Err(e) = &inspect {
        assert!(is_named(e), "{what}: unnamed inspect error {e:?}");
    }
    // The two readers share the header and tiling checks: a file the
    // opener accepts, the inspector accepts too.
    if open.is_ok() {
        assert!(inspect.is_ok(), "{what}: inspect refused an openable file");
    }
    open.is_ok()
}

fn fuzz_one(dir: &Path, idx: &WalkIndex, seed: u64) {
    let path = dir.join("base.rwdidx");
    idx.save_v4(&path).unwrap();
    let base = std::fs::read(&path).unwrap();
    let shape = shape_of(idx);
    assert_eq!(*shape.boundaries.last().unwrap(), base.len());
    assert!(check(dir, &base, "pristine file"));
    let table_end = shape.boundaries[2];

    // Every bit of the fixed header and the entry table, flipped.
    for byte in 0..table_end {
        for bit in 0..8 {
            let mut m = base.clone();
            m[byte] ^= 1 << bit;
            reseal(&mut m);
            check(dir, &m, &format!("flip byte {byte} bit {bit}"));
        }
    }

    // Truncation at every section boundary and one byte either side, both
    // raw and re-sealed.
    for &b in &shape.boundaries {
        for cut in [b.saturating_sub(1), b, b + 1] {
            if cut >= base.len() {
                continue;
            }
            let mut m = base[..cut].to_vec();
            check(dir, &m, &format!("truncate at {cut}"));
            reseal(&mut m);
            check(dir, &m, &format!("truncate at {cut}, resealed"));
        }
    }

    // Header fields and entry counts near u64::MAX (and near the u32
    // edges the format constrains).
    let extremes = [
        u64::MAX,
        u64::MAX - 1,
        u64::MAX - 7,
        1 << 63,
        u32::MAX as u64,
        u32::MAX as u64 + 1,
        0,
    ];
    for field in (8..table_end).step_by(8) {
        for &v in &extremes {
            let mut m = base.clone();
            m[field..field + 8].copy_from_slice(&v.to_le_bytes());
            reseal(&mut m);
            check(dir, &m, &format!("u64 at {field} = {v}"));
        }
    }

    // A posting id >= n and hops of 0 and L + 1, in both views of every
    // layer: structurally valid, CRC-valid, refused by name.
    let (n, l) = (shape.n, shape.l);
    for (layer, starts) in shape.sections.iter().enumerate() {
        for (view, ids, hops) in [
            ("inverted", starts[1], starts[2]),
            ("forward", starts[4], starts[5]),
        ] {
            for id in [n, n + 1, 1_000_000, u32::MAX] {
                let mut m = base.clone();
                m[ids..ids + 4].copy_from_slice(&id.to_le_bytes());
                reseal(&mut m);
                let what = format!("layer {layer} {view} id {id}");
                assert!(!check(dir, &m, &what), "{what} was accepted");
                let e = WalkIndex::open_mapped(dir.join("mutant.rwdidx")).unwrap_err();
                assert!(
                    e.to_string().contains("posting id out of range"),
                    "{what}: {e}"
                );
            }
            for hop in [0, l + 1, u16::MAX] {
                let mut m = base.clone();
                m[hops..hops + 2].copy_from_slice(&hop.to_le_bytes());
                reseal(&mut m);
                let what = format!("layer {layer} {view} hop {hop}");
                assert!(!check(dir, &m, &what), "{what} was accepted");
                let e = WalkIndex::open_mapped(dir.join("mutant.rwdidx")).unwrap_err();
                assert!(e.to_string().contains("hop weight outside"), "{what}: {e}");
            }
        }
    }

    // Seeded random damage anywhere: one to four bytes overwritten.
    let mut rng = Rng(seed);
    for case in 0..400 {
        let mut m = base.clone();
        for _ in 0..=rng.below(4) {
            let at = rng.below(m.len());
            m[at] = rng.next() as u8;
        }
        reseal(&mut m);
        check(dir, &m, &format!("random case {case} (seed {seed})"));
    }
}

#[test]
fn every_mutation_yields_a_value_or_a_named_error() {
    let dir = std::env::temp_dir().join(format!("rwd-decoder-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let g = rwd_graph::generators::barabasi_albert(60, 3, 11).unwrap();
    fuzz_one(&dir, &WalkIndex::build(&g, 5, 4, 7), 0x5EED_0001);
    let wg = rwd_graph::weighted::weighted_twin(&g, 3).unwrap();
    let shard = WalkIndex::build_weighted_layer_range(&wg, 4, LayerRange::new(2, 5), 9, 0);
    fuzz_one(&dir, &shard, 0x5EED_0002);
    std::fs::remove_dir_all(&dir).ok();
}
