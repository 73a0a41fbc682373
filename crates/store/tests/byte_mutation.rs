//! Byte mutations of the two decoders of untrusted file bytes: every
//! truncation and random single-byte flips of a small file in each layout
//! (frozen index file, legacy row file, checkpoint) must return `Ok` or a
//! typed [`PersistError`], never panic.

use hopi_core::DistanceCoverBuilder;
use hopi_graph::DistanceClosure;
use hopi_store::persist::{
    load_checkpoint, load_index, save_checkpoint, save_frozen, CoverBaseline, PersistError,
};
use hopi_store::vfs::StdVfs;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

/// A file to mutate: its name, its bytes, and whether it is a checkpoint.
type File = (&'static str, Vec<u8>, bool);

/// The files mutated. The frozen file and the checkpoint are written
/// fresh, with DIST and a baseline; the row files are the committed
/// fixtures.
fn files() -> &'static [File] {
    static FILES: OnceLock<Vec<File>> = OnceLock::new();
    FILES.get_or_init(write_files)
}

fn write_files() -> Vec<File> {
    let collection = hopi_xml::parser::parse_collection([
        ("a", r#"<r><s><t/></s><cite xlink:href="b"/></r>"#),
        ("b", r#"<r><s/><cite xlink:href="c"/></r>"#),
    ])
    .unwrap();
    let closure = DistanceClosure::from_graph(&collection.element_graph());
    let frozen = DistanceCoverBuilder::new(&closure).build();
    let baseline = Some(CoverBaseline {
        entries: 5,
        live_elements: 7,
    });
    let written = |name: &str, save: &dyn Fn(&PathBuf)| {
        let path = temp(name);
        save(&path);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    };
    let fixture = |name: &str| {
        std::fs::read(
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("tests/fixtures")
                .join(name),
        )
        .unwrap()
    };
    vec![
        (
            "frozen",
            written("frozen", &|p| {
                save_frozen(&StdVfs, &frozen, p, baseline).unwrap()
            }),
            false,
        ),
        ("v2_rows.idx", fixture("v2_rows.idx"), false),
        ("v4_rows_dist.idx", fixture("v4_rows_dist.idx"), false),
        (
            "checkpoint",
            written("checkpoint", &|p| {
                save_checkpoint(&StdVfs, p, &collection, &frozen, 3, baseline).unwrap()
            }),
            true,
        ),
    ]
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hopi_mutation_{name}_{}", std::process::id()))
}

/// Loads `bytes` from a file named after the calling test through the
/// decoder for its kind.
fn load(test: &str, bytes: &[u8], checkpoint: bool) -> Result<(), PersistError> {
    let path = temp(test);
    std::fs::write(&path, bytes).unwrap();
    let loaded = if checkpoint {
        load_checkpoint(&StdVfs, &path).map(drop)
    } else {
        load_index(&StdVfs, &path).map(drop)
    };
    std::fs::remove_file(&path).ok();
    loaded
}

#[test]
fn every_truncation_is_a_format_error() {
    for &(name, ref bytes, checkpoint) in files() {
        assert!(
            load("cut", bytes, checkpoint).is_ok(),
            "{name} must load whole"
        );
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    load("cut", &bytes[..cut], checkpoint),
                    Err(PersistError::Format(_))
                ),
                "{name} cut at {cut}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn single_byte_flips_never_panic(which in 0usize..4, at in 0usize..1 << 16, mask in 1u8..=255) {
        let (_, bytes, checkpoint) = &files()[which];
        let mut bytes = bytes.clone();
        let at = at % bytes.len();
        bytes[at] ^= mask;
        // Any outcome but a panic is acceptable: the flip may hit a byte
        // the decoder cannot check (a center, a distance, a baseline).
        let _ = load("flip", &bytes, *checkpoint);
    }
}
