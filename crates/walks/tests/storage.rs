//! Corpus tests for the index file format and its one reader.
//!
//! Two claims are pinned here. **Round trip:** an RWDIDX4 file written
//! by `save_v4` opens (mapped where the host allows) to the same bits as
//! the index that wrote it, for monolithic and layer-range shard files
//! alike, and `inspect_index_file` reports its header facts. **Rejection:**
//! a truncated, misaligned, bit-rotted or obsolete-format file fails with
//! a *named* error on the opener and the inspector — never a panic, never
//! a silently wrong index. `tests/decoder_fuzz.rs` sweeps the same
//! contract over seeded mutations.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use rwd_graph::{CsrGraph, NodeId};
use rwd_walks::{inspect_index_file, LayerRange, NodeSet, WalkIndex};

static UNIQ: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rwd-storage-{tag}-{}-{}",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// True when this host serves columns from the map (elsewhere the opener
/// reads the same sections into owned columns).
fn mapped_path_available() -> bool {
    cfg!(unix) && cfg!(target_endian = "little")
}

/// A small deterministic graph with some structure to walk.
fn sample_graph() -> CsrGraph {
    rwd_graph::generators::barabasi_albert(60, 3, 11).unwrap()
}

#[test]
fn v4_open_is_bit_identical_to_the_built_index() {
    let g = sample_graph();
    let idx = WalkIndex::build(&g, 6, 8, 5);
    let dir = tmp_dir("v4");
    let path = dir.join("mono.rwdidx");
    idx.save_v4(&path).unwrap();

    let info = inspect_index_file(&path).unwrap();
    assert_eq!(
        (info.n, info.l, info.layer_count, info.layer_base),
        (60, 6, 8, 0)
    );
    assert_eq!(info.section_align, 8);
    assert!(info.crc_ok);
    assert_eq!(info.total_postings, idx.total_postings() as u64);
    assert_eq!(info.file_bytes, std::fs::metadata(&path).unwrap().len());

    // Same bits by value, whichever store the columns live in.
    let opened = WalkIndex::open_mapped(&path).unwrap();
    assert_eq!(opened, idx);
    assert_eq!(
        opened.memory_bytes(),
        opened.heap_bytes() + opened.mapped_bytes()
    );
    if mapped_path_available() {
        assert_eq!(opened.mapped_layers(), idx.r());
        assert!(opened.mapped_bytes() > 0, "postings should live in the map");
        assert_eq!(
            opened.heap_bytes(),
            0,
            "a fresh mapped open owns no column bytes"
        );
    }

    // Round-trip: re-saving the opened index reproduces the exact file.
    let resaved = dir.join("resaved.rwdidx");
    opened.save_v4(&resaved).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&resaved).unwrap(),
        "save_v4 of an opened index must be byte-identical to the source file"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v4_layer_range_opens_match_build_layer_range() {
    // Each shard of a tiling saves its own file with its absolute layer
    // base; opening it yields exactly the shard `build_layer_range` built.
    let g = sample_graph();
    let dir = tmp_dir("range");
    for range in LayerRange::partition(7, 3) {
        let built = WalkIndex::build_layer_range(&g, 4, range, 21, 0);
        let path = dir.join(format!("shard-{}.rwdidx", range.start()));
        built.save_v4(&path).unwrap();
        let opened = WalkIndex::open_mapped(&path).unwrap();
        assert_eq!(opened, built);
        assert_eq!(opened.layer_range(), range);
        if mapped_path_available() {
            assert_eq!(opened.mapped_layers(), range.len());
        }
        let info = inspect_index_file(&path).unwrap();
        assert_eq!(
            (info.layer_base, info.layer_count),
            (range.start() as u64, range.len() as u64)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mapped_open_rejects_non_v4_files_by_name() {
    let dir = tmp_dir("reject");

    // Every retired layout — the AoS RWDIDX1 and the packed RWDIDX2/3 —
    // is refused by the opener and the inspector with one named error.
    for old in ["RWDIDX1", "RWDIDX2", "RWDIDX3"] {
        let p = dir.join(format!("{old}.rwdidx"));
        let mut bytes = format!("{old}\0").into_bytes();
        bytes.extend_from_slice(&[0u8; 48]);
        std::fs::write(&p, &bytes).unwrap();
        for err in [
            WalkIndex::open_mapped(&p).unwrap_err(),
            inspect_index_file(&p).unwrap_err(),
        ] {
            let msg = err.to_string();
            assert!(
                msg.contains("obsolete walk-index format") && msg.contains(old),
                "{msg}"
            );
            assert!(msg.contains("rebuild the index"), "{msg}");
        }
    }

    // Arbitrary bytes and an empty file are named too.
    let junk = dir.join("junk.rwdidx");
    std::fs::write(&junk, b"definitely not an index").unwrap();
    let err = WalkIndex::open_mapped(&junk).unwrap_err();
    assert!(err.to_string().contains("bad magic"), "{err}");
    let empty = dir.join("empty.rwdidx");
    std::fs::write(&empty, b"").unwrap();
    assert_eq!(
        WalkIndex::open_mapped(&empty).unwrap_err().kind(),
        std::io::ErrorKind::InvalidData
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Every structural damage mode of a V4 file yields the same named error
/// on the opener and the inspector (which reports a CRC mismatch instead
/// of failing, so damaged files can be triaged).
#[test]
fn damaged_v4_files_are_rejected_by_name_on_every_open_path() {
    let g = sample_graph();
    let idx = WalkIndex::build(&g, 5, 6, 13);
    let dir = tmp_dir("damage");
    let path = dir.join("mono.rwdidx");
    idx.save_v4(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    let open_errors = |p: &PathBuf| -> Vec<String> {
        vec![
            WalkIndex::open_mapped(p).unwrap_err().to_string(),
            inspect_index_file(p).unwrap_err().to_string(),
        ]
    };

    // Cut inside the fixed header: truncated.
    let p = dir.join("header-cut.rwdidx");
    std::fs::write(&p, &pristine[..30]).unwrap();
    for e in open_errors(&p) {
        assert!(e.contains("truncated"), "{e}");
    }

    // Cut inside the sections: the tiling no longer accounts for the file.
    let p = dir.join("tail-cut.rwdidx");
    std::fs::write(&p, &pristine[..pristine.len() - 9]).unwrap();
    for e in open_errors(&p) {
        assert!(e.contains("size mismatch before checksum trailer"), "{e}");
    }

    // Header claims a section alignment this build does not read.
    let p = dir.join("misaligned.rwdidx");
    let mut bytes = pristine.clone();
    bytes[48..56].copy_from_slice(&4u64.to_le_bytes());
    std::fs::write(&p, &bytes).unwrap();
    for e in open_errors(&p) {
        assert!(e.contains("unsupported section alignment"), "{e}");
    }

    // Entry table claims a layer bigger than the file.
    let p = dir.join("huge-layer.rwdidx");
    let mut bytes = pristine.clone();
    bytes[56..64].copy_from_slice(&(1u64 << 30).to_le_bytes());
    std::fs::write(&p, &bytes).unwrap();
    for e in open_errors(&p) {
        assert!(e.contains("exceeds file size"), "{e}");
    }

    // A flipped payload bit: structure intact, checksum names the rot —
    // and inspect still reports the header facts with `crc_ok: false`.
    let p = dir.join("bitrot.rwdidx");
    let mut bytes = pristine.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&p, &bytes).unwrap();
    let e = WalkIndex::open_mapped(&p).unwrap_err().to_string();
    assert!(e.contains("content checksum mismatch"), "{e}");
    let info = inspect_index_file(&p).unwrap();
    assert!(!info.crc_ok, "inspect must notice the rot");
    assert_eq!((info.n, info.layer_count), (60, 6));

    std::fs::remove_dir_all(&dir).ok();
}

/// Copy-on-write at layer grain: refreshing a mapped index promotes the
/// touched layers to the heap and lands on bits identical to refreshing
/// an owned index — promoted-then-edited ≡ owned-then-edited.
#[test]
fn refresh_promotes_mapped_layers_and_matches_owned_refresh() {
    if !mapped_path_available() {
        return;
    }
    let g0 = sample_graph();
    let idx = WalkIndex::build(&g0, 5, 6, 31);
    let dir = tmp_dir("promote");
    let path = dir.join("mono.rwdidx");
    idx.save_v4(&path).unwrap();

    // The next graph: one fresh edge between low-degree endpoints.
    let mut edges: Vec<(u32, u32)> = g0.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
    let extra = (0..g0.n() as u32)
        .flat_map(|u| ((u + 1)..g0.n() as u32).map(move |v| (u, v)))
        .find(|&(u, v)| !g0.has_edge(NodeId(u), NodeId(v)))
        .expect("sample graph is not complete");
    edges.push(extra);
    let g1 = CsrGraph::from_edges(g0.n(), &edges).unwrap();
    let touched = NodeSet::from_nodes(g0.n(), [NodeId(extra.0), NodeId(extra.1)]);

    let mut owned = idx.clone();
    owned.refresh(&g1, &touched);

    let mut mapped = WalkIndex::open_mapped(&path).unwrap();
    assert_eq!(mapped.mapped_layers(), idx.r());
    mapped.refresh(&g1, &touched);
    assert_eq!(
        mapped, owned,
        "promote-then-refresh drifted from owned refresh"
    );
    assert_eq!(
        mapped.mapped_layers(),
        0,
        "a touched endpoint invalidates one walk group in every layer"
    );
    assert_eq!(mapped.mapped_bytes(), 0);
    assert_eq!(mapped, WalkIndex::build(&g1, 5, 6, 31));

    std::fs::remove_dir_all(&dir).ok();
}
