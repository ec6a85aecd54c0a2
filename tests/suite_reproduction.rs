//! Integration: the experiment suite reproduces the paper's headline
//! shapes at the small (CI) scale, end to end.

use mcs::{ExperimentId, ExperimentSuite, ReproConfig};

#[test]
fn headline_figures_hold_shape_at_ci_scale() {
    let mut suite = ExperimentSuite::new(ReproConfig::small(2016));
    // Every experiment's shape verdicts, `paper_figures`' headline set
    // included.
    for &id in ExperimentId::all() {
        let report = suite.run(id);
        assert!(
            report.all_ok(),
            "{id} shape check failed:\n{}",
            report.render()
        );
    }
}

#[test]
fn reports_are_deterministic() {
    let mut a = ExperimentSuite::new(ReproConfig::small(5));
    let mut b = ExperimentSuite::new(ReproConfig::small(5));
    for id in ["f3", "t3", "f16"] {
        let id: ExperimentId = id.parse().unwrap();
        assert_eq!(
            a.run(id).render(),
            b.run(id).render(),
            "{id} not deterministic"
        );
    }
}

#[test]
fn every_report_mentions_its_paper_artifact() {
    let mut suite = ExperimentSuite::new(ReproConfig::small(9));
    for &id in ExperimentId::all() {
        let r = suite.run(id);
        assert!(
            r.title.contains("Fig.") || r.title.contains("Table") || r.title.starts_with('A'),
            "{id}: title does not name its artifact: {}",
            r.title
        );
        assert!(!r.metrics.is_empty(), "{id}: no headline metrics");
    }
}
