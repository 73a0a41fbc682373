//! Occasional index rebuilds (paper §6).
//!
//! "Over time, the space efficiency of the 2–hop cover that HOPI maintains
//! may degrade. Then occasional rebuilds of the index may be considered,
//! using the efficient algorithm presented in Section 4." Incremental
//! maintenance adds entries locally — a §6.1 link integration covers its
//! new connections from the labels of its two endpoints, a Theorem 3
//! splice re-covers the deletion's ancestors in isolation — instead of
//! choosing the globally densest centers, so the cover drifts away from
//! what a fresh build would produce. This module measures that drift
//! against the last build, attributes it to the operation kinds that
//! caused it, and decides when a rebuild pays off; the rebuild itself is
//! `hopi_build::Hopi::rebuild` (in place) or
//! `hopi_build::OnlineHopi::rebuild_in_background` (while serving).

use hopi_core::HopiIndex;
use hopi_xml::Collection;

/// The cover and the collection as the last build or rebuild left them —
/// the yardstick drift is measured against. `hopi_build` saves it beside
/// the cover (`hopi_store::CoverBaseline`), so it outlives a restart.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildBaseline {
    /// Cover entries right after the build.
    pub entries: usize,
    /// Live elements at the build.
    pub live_elements: usize,
}

impl BuildBaseline {
    /// The baseline of a cover that was just built over `collection`.
    pub fn measure(collection: &Collection, index: &HopiIndex) -> Self {
        BuildBaseline {
            entries: index.size(),
            live_elements: collection.element_count(),
        }
    }
}

/// Degradation snapshot of a maintained index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Degradation {
    /// Current cover entries.
    pub entries: usize,
    /// Live elements in the collection.
    pub live_elements: usize,
    /// Entries per live element — the paper's INEX yardstick was
    /// "less than three index entries per node".
    pub entries_per_element: f64,
    /// Cover entries at the last build or rebuild.
    pub entries_at_build: usize,
    /// Entries now ÷ entries at build, scaled by live elements now ÷ live
    /// elements at build (each side at least 1): 1.0 right after a build,
    /// and above 1.0 when the cover has grown faster than the collection.
    pub drift_ratio: f64,
}

impl Degradation {
    /// The degradation of a cover of `entries` over `live_elements` live
    /// elements, against the build it was maintained from.
    pub fn measure(entries: usize, live_elements: usize, at_build: BuildBaseline) -> Self {
        let growth = live_elements.max(1) as f64 / at_build.live_elements.max(1) as f64;
        Degradation {
            entries,
            live_elements,
            entries_per_element: entries as f64 / live_elements.max(1) as f64,
            entries_at_build: at_build.entries,
            drift_ratio: entries as f64 / at_build.entries.max(1) as f64 / growth,
        }
    }
}

/// Policy deciding when a rebuild pays off.
#[derive(Clone, Copy, Debug)]
pub struct RebuildPolicy {
    /// Rebuild when [`Degradation::drift_ratio`] exceeds this bound.
    pub max_drift_ratio: f64,
}

impl Default for RebuildPolicy {
    /// A bound of 2.0: rebuild once the cover holds twice the entries per
    /// live element it held right after its last build. Reads pay for the
    /// extra entries (longer label rows to merge and enumerate), while a
    /// fresh build restores a ratio of 1.0.
    fn default() -> Self {
        RebuildPolicy {
            max_drift_ratio: 2.0,
        }
    }
}

/// Measures the current degradation against the last build.
pub fn degradation(
    collection: &Collection,
    index: &HopiIndex,
    at_build: BuildBaseline,
) -> Degradation {
    Degradation::measure(index.size(), collection.element_count(), at_build)
}

/// Should an index in this state be rebuilt under the policy?
pub fn should_rebuild(degradation: &Degradation, policy: &RebuildPolicy) -> bool {
    degradation.drift_ratio > policy.max_drift_ratio
}

/// Net change in cover entries per kind of §6 operation — who owns the
/// drift. Signed: a deletion usually removes entries, and a Theorem 3
/// splice can add more than it removes. A modification books its
/// deletion and its reinsertion separately.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EntriesAdded {
    /// Standalone link insertions (§6.1).
    pub insert_link: i64,
    /// Document insertions with their links (§6.1).
    pub insert_document: i64,
    /// Theorem 2 document deletions.
    pub delete_separator: i64,
    /// Theorem 3 document and link deletions.
    pub delete_general: i64,
}

impl EntriesAdded {
    /// The operation kinds' `op` labels, in exposition order.
    pub const OPS: [&'static str; 4] = [
        "insert_link",
        "insert_document",
        "delete_separator",
        "delete_general",
    ];

    /// `(op label, net entries)` pairs, in exposition order.
    pub fn as_labeled(&self) -> [(&'static str, i64); 4] {
        let [link, document, separator, general] = Self::OPS;
        [
            (link, self.insert_link),
            (document, self.insert_document),
            (separator, self.delete_separator),
            (general, self.delete_general),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopi_partition::{build_index, BuildConfig};
    use hopi_xml::generator::{dblp, DblpConfig};

    #[test]
    fn policy_threshold() {
        let c = dblp(&DblpConfig::scaled(0.002));
        let (index, _) = build_index(&c, &BuildConfig::default());
        let fresh = degradation(&c, &index, BuildBaseline::measure(&c, &index));
        let bound = |max_drift_ratio| RebuildPolicy { max_drift_ratio };
        assert!(!should_rebuild(&fresh, &RebuildPolicy::default()));
        assert!(
            !should_rebuild(&fresh, &bound(1.0)),
            "a fresh build sits at 1.0"
        );
        assert!(should_rebuild(&fresh, &bound(0.5)));
    }

    #[test]
    fn degradation_metric() {
        let c = dblp(&DblpConfig::scaled(0.002));
        let (index, _) = build_index(&c, &BuildConfig::default());
        let at_build = BuildBaseline::measure(&c, &index);
        let d = degradation(&c, &index, at_build);
        assert_eq!(d.entries, index.size());
        assert_eq!(d.live_elements, c.element_count());
        assert_eq!(d.entries_at_build, index.size());
        assert!((d.entries_per_element - d.entries as f64 / d.live_elements as f64).abs() < 1e-12);
        assert!((d.drift_ratio - 1.0).abs() < 1e-12);
        // Twice the entries over the same elements is a drift of 2; twice
        // the entries over twice the elements is none.
        let twice = Degradation::measure(2 * d.entries, d.live_elements, at_build);
        assert!((twice.drift_ratio - 2.0).abs() < 1e-12);
        let grown = Degradation::measure(2 * d.entries, 2 * d.live_elements, at_build);
        assert!((grown.drift_ratio - 1.0).abs() < 1e-12);
    }
}
