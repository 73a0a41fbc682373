//! Occasional index rebuilds (paper §6).
//!
//! "Over time, the space efficiency of the 2–hop cover that HOPI maintains
//! may degrade. Then occasional rebuilds of the index may be considered,
//! using the efficient algorithm presented in Section 4." Incremental link
//! integration (§6.1) and the Theorem 3 splice both add entries greedily —
//! each insertion picks a fixed center instead of the globally densest one
//! — so the cover drifts away from what a fresh build would produce. This
//! module quantifies that drift and decides when a rebuild pays off; the
//! rebuild itself is `hopi_build::Hopi::rebuild` (in place) or
//! `hopi_build::OnlineHopi::rebuild_in_background` (while serving).

use hopi_core::HopiIndex;
use hopi_xml::Collection;

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
}

/// Policy deciding when a rebuild pays off.
#[derive(Clone, Copy, Debug)]
pub struct RebuildPolicy {
    /// Rebuild when entries/element exceeds this bound.
    pub max_entries_per_element: f64,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        // Generous default: trees need <3 (paper §7.2); linked collections
        // land around 10–40 at our scales, so 4x that headroom.
        RebuildPolicy {
            max_entries_per_element: 150.0,
        }
    }
}

/// Measures the current degradation.
pub fn degradation(collection: &Collection, index: &HopiIndex) -> Degradation {
    let live = collection.element_count().max(1);
    Degradation {
        entries: index.size(),
        live_elements: live,
        entries_per_element: index.size() as f64 / live as f64,
    }
}

/// Should the index be rebuilt under the policy?
pub fn should_rebuild(collection: &Collection, index: &HopiIndex, policy: &RebuildPolicy) -> bool {
    degradation(collection, index).entries_per_element > policy.max_entries_per_element
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
        assert!(!should_rebuild(
            &c,
            &index,
            &RebuildPolicy {
                max_entries_per_element: 1e9
            }
        ));
        assert!(should_rebuild(
            &c,
            &index,
            &RebuildPolicy {
                max_entries_per_element: 0.0
            }
        ));
    }

    #[test]
    fn degradation_metric() {
        let c = dblp(&DblpConfig::scaled(0.002));
        let (index, _) = build_index(&c, &BuildConfig::default());
        let d = degradation(&c, &index);
        assert_eq!(d.entries, index.size());
        assert_eq!(d.live_elements, c.element_count());
        assert!((d.entries_per_element - d.entries as f64 / d.live_elements as f64).abs() < 1e-12);
    }
}
