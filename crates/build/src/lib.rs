//! # hopi-build — the public face of the HOPI index
//!
//! This crate bundles the whole HOPI system (Schenkel, Theobald, Weikum;
//! ICDE 2005) behind one engine type:
//!
//! * [`Hopi`] — an XML collection plus its 2-hop connection index, built
//!   with [`Hopi::builder`] and driven through one handle for the entire
//!   lifecycle: `connected`/`distance`, `query`/`query_ranked`,
//!   `insert_document`/`delete_document`/`insert_link`/`delete_link`,
//!   `rebuild`, `save_frozen`/`open`, `stats`.
//! * [`HopiSnapshot`] — an immutable serving view ([`Hopi::snapshot`]):
//!   the cover frozen into flat CSR arrays plus tag index, term index and
//!   collection, shared via `Arc` with no lock held during query
//!   evaluation.
//! * [`Reads`] — the one read path both dereference to: `connected`,
//!   `distance`, `descendants`, `query`, `query_ranked`, … are each
//!   written once, generic over the cover an engine holds live and a
//!   snapshot holds frozen. The distance-annotated frozen cover (ranked
//!   reads and distances), the tag index and the term index are one value
//!   each, shared by the engine and its snapshots until a write replaces
//!   them.
//! * [`OnlineHopi`] — the same surface lifted into 24×7 serving (paper
//!   §1.1): reads run lock-free against the current snapshot
//!   ([`OnlineHopi::snapshot`]), brief write-locked incremental updates
//!   refresh it, and background rebuilds swap in atomically.
//! * [`HopiError`] — the single error type crossing this boundary,
//!   replacing the expert layer's mix of panics, `Option`s and per-crate
//!   errors.
//! * **Durable mode** — [`OnlineHopi::open_durable`] adds a write-ahead
//!   log with group commit and atomic checkpoints: acknowledged mutations
//!   survive a crash, and [`Hopi::recover`] replays the WAL tail past the
//!   last checkpoint (tolerating a torn final record).
//!
//! ## Quickstart
//!
//! ```
//! use hopi_build::Hopi;
//!
//! let hopi = Hopi::builder().parse([
//!     ("paper-a", r#"<article><cite xlink:href="paper-b"/></article>"#),
//!     ("paper-b", r#"<article><sec id="s1"/></article>"#),
//! ])?;
//!
//! let a_root = hopi.resolve("paper-a", "")?;
//! let b_sec = hopi.resolve("paper-b", "s1")?;
//! assert!(hopi.connected(a_root, b_sec));
//! assert_eq!(hopi.query("//article//sec")?, vec![b_sec]);
//! # Ok::<(), hopi_build::HopiError>(())
//! ```
//!
//! ## The expert layer
//!
//! The low-level machinery stays available for code that needs to hold the
//! pieces separately: the build pipeline ([`build_index`], [`BuildConfig`],
//! [`PartitionerChoice`]) from `hopi_partition` and the index handle
//! ([`HopiIndex`]) from `hopi_core` — re-exported here under their
//! historical `hopi_build` paths. The facade is a thin, always-consistent
//! composition of exactly these functions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod durable;
mod error;
mod facade;
mod online;
mod reads;
mod snapshot;

pub use durable::{
    is_durable_dir, CheckpointStats, DurableConfig, WalHistograms, WalStats, CHECKPOINT_FILE,
    LOCK_FILE, WAL_FILE,
};
pub use error::HopiError;
pub use facade::{Hopi, HopiBuilder, Stats};
pub use online::{OnlineHopi, PublishTotals};
pub use reads::Reads;
pub use snapshot::{
    BuildPhaseTimings, HopiSnapshot, MaintenanceStats, PublishStats, SnapshotStats,
};

// The WAL sync policy, on-disk format version, and the pluggable I/O
// backend (StdVfs in production, FaultVfs under fault injection) are
// part of the durable-open surface; the mutation record is what
// [`OnlineHopi::apply`] takes.
pub use hopi_store::{
    FaultKind, FaultOp, FaultOpKind, FaultVfs, StdVfs, SyncPolicy, Vfs, WalRecord,
    STORE_FORMAT_VERSION,
};

// Query-plan observability: the per-`//`-step strategy, counters, and
// EXPLAIN report types surfaced through [`Hopi::query_explained`],
// [`SnapshotStats::plan`], and the server's `/stats` + `/metrics`.
pub use hopi_query::{PlanCounters, PlanCounts, QueryPlanReport, Strategy};

// Term-index sizes, reported by [`Stats::text`] and [`SnapshotStats::text`].
pub use hopi_text::TextStats;

// ---------------------------------------------------------------------
// The expert layer, re-exported under its historical paths.
// ---------------------------------------------------------------------

pub use hopi_core::HopiIndex;
pub use hopi_partition::pipeline::{
    build_index, BuildConfig, BuildReport, PartitionerChoice, PsgJoinReport,
};

#[cfg(test)]
mod tests {
    use super::*;
    use hopi_maintenance::DocumentLinks;
    use hopi_xml::XmlDocument;

    fn engine() -> Hopi {
        Hopi::builder()
            .parse([
                ("a", r#"<r><s/><cite xlink:href="b"/></r>"#),
                ("b", r#"<r><sec id="deep"><p/></sec></r>"#),
            ])
            .expect("valid fixture")
    }

    #[test]
    fn facade_composes_expert_layer() {
        let hopi = engine();
        // The facade's answers match a hand-rolled expert-layer pipeline.
        let (index, _) = build_index(hopi.collection(), &BuildConfig::default());
        let n = hopi.collection().elem_id_bound() as u32;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(hopi.connected(u, v), index.connected(u, v));
            }
        }
    }

    #[test]
    fn lifecycle_round_trip() {
        let mut hopi = engine();
        let a = hopi.resolve("a", "").unwrap();
        let deep = hopi.resolve("b", "deep").unwrap();
        assert!(hopi.connected(a, deep));

        let mut doc = XmlDocument::new("c", "r");
        let child = doc.add_element(0, "x");
        let c = hopi
            .insert_document(
                doc,
                &DocumentLinks {
                    outgoing: vec![(child, a)],
                    incoming: vec![],
                },
            )
            .unwrap();
        let c_root = hopi.collection().global_id(c, 0);
        assert!(hopi.connected(c_root, deep), "new doc reaches b via a");
        hopi.delete_document(c).unwrap();
        assert!(hopi.query("//r//x").unwrap().is_empty());
    }

    #[test]
    fn content_queries_run_end_to_end() {
        let mut hopi = Hopi::builder()
            .distance_aware(true)
            .parse([
                (
                    "a",
                    r#"<r><s>xml indexing with hopi</s><cite xlink:href="b"/></r>"#,
                ),
                ("b", r#"<r><sec id="deep"><p>plain prose</p></sec></r>"#),
            ])
            .unwrap();

        // Boolean path with a content predicate, live engine.
        let s = hopi.query("//r//s[contains(., \"indexing\")]").unwrap();
        assert_eq!(s.len(), 1);
        assert!(hopi
            .query("//s[contains(., \"absent\")]")
            .unwrap()
            .is_empty());

        // The snapshot shares the engine's term index and answers alike.
        let snap = hopi.snapshot();
        assert_eq!(snap.query("//r//s[contains(., \"indexing\")]").unwrap(), s);
        let snap_stats = snap.stats();
        assert!(snap_stats.text.vocabulary >= 5);
        assert!(snap_stats.text.postings_bytes > 0);
        assert_eq!(snap_stats.text.indexed_elements, 2);

        // Ranked fusion: the matching element carries a text score.
        let ranked = hopi.query_ranked("//r//s[about(., \"xml hopi\")]").unwrap();
        assert_eq!(ranked.len(), 1);
        assert!(ranked[0].text_score > 0.0);
        assert!(ranked[0].score() > 1.0 / (1.0 + ranked[0].distance as f64));

        // Engine stats expose the term index.
        let stats = hopi.stats();
        assert_eq!(stats.text.indexed_elements, 2);
        assert!(stats.text.vocabulary >= 5);

        // Maintenance keeps the term index in lockstep.
        let mut doc = XmlDocument::new("c", "r");
        let x = doc.add_element(0, "x");
        doc.set_text(x, "fresh indexing material");
        let c = hopi
            .insert_document(doc, &DocumentLinks::default())
            .unwrap();
        assert_eq!(
            hopi.query("//x[contains(., \"indexing\")]").unwrap().len(),
            1
        );
        hopi.delete_document(c).unwrap();
        assert!(hopi
            .query("//x[contains(., \"indexing\")]")
            .unwrap()
            .is_empty());
        assert_eq!(hopi.stats().text.indexed_elements, 2);
    }

    #[test]
    fn churn_degrades_the_cover_and_rebuild_shrinks_it() {
        use hopi_xml::generator::{dblp, DblpConfig};
        let mut hopi = Hopi::build(dblp(&DblpConfig::scaled(0.003))).unwrap();
        let fresh = hopi.degradation().entries;
        // §6.1 insertions cover their connections from their endpoints'
        // labels, not with globally dense centers, so the cover drifts.
        let docs: Vec<u32> = hopi.collection().doc_ids().collect();
        for i in 0..40 {
            let (a, b) = (docs[(i * 3) % docs.len()], docs[(i * 11 + 2) % docs.len()]);
            if a != b {
                let from = hopi.collection().global_id(a, 0);
                let to = hopi.collection().global_id(b, 0);
                hopi.insert_link(from, to).unwrap();
            }
        }
        let churned = hopi.degradation();
        assert!(churned.entries > fresh, "churn grows the cover");
        assert_eq!(churned.live_elements, hopi.collection().element_count());
        assert_eq!(churned.entries_at_build, fresh);
        assert!(churned.drift_ratio > 1.0, "{churned:?}");
        hopi.rebuild();
        let rebuilt = hopi.degradation();
        assert!(
            rebuilt.entries < churned.entries,
            "{} !< {}",
            rebuilt.entries,
            churned.entries
        );
        assert_eq!(rebuilt.entries_at_build, rebuilt.entries);
        assert!((rebuilt.drift_ratio - 1.0).abs() < 1e-12, "{rebuilt:?}");
        let (index, _) = build_index(hopi.collection(), &BuildConfig::default());
        let n = hopi.collection().elem_id_bound() as u32;
        for u in (0..n).step_by(5) {
            for v in (0..n).step_by(5) {
                assert_eq!(hopi.connected(u, v), index.connected(u, v));
            }
        }
    }

    #[test]
    fn errors_are_typed() {
        let mut hopi = engine();
        assert!(matches!(hopi.query("not-a-path"), Err(HopiError::Path(_))));
        assert!(matches!(
            hopi.delete_document(99),
            Err(HopiError::UnknownDocument(99))
        ));
        assert!(matches!(
            hopi.resolve("nope", ""),
            Err(HopiError::UnresolvedRef { .. })
        ));
        assert!(matches!(
            hopi.distance(0, 1),
            Err(HopiError::DistanceDisabled)
        ));
    }
}
