//! The experiment suite: lazily generates the trace, runs the analysis
//! pipeline once, and regenerates any table/figure on demand.

use mcs_analysis::{analyze, FullAnalysis};
use mcs_obs::Registry;
use mcs_trace::TraceGenerator;

use crate::config::ReproConfig;
use crate::report::{ExperimentId, Report};

/// Shared state for all experiments of one configuration.
pub struct ExperimentSuite {
    cfg: ReproConfig,
    generator: Option<TraceGenerator>,
    analysis: Option<FullAnalysis>,
}

impl ExperimentSuite {
    /// Creates the suite (nothing is computed yet).
    pub fn new(cfg: ReproConfig) -> Self {
        Self {
            cfg,
            generator: None,
            analysis: None,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ReproConfig {
        &self.cfg
    }

    /// The trace generator (built on first use).
    pub fn generator(&mut self) -> &TraceGenerator {
        self.generator.get_or_insert_with(|| {
            TraceGenerator::new(self.cfg.trace.clone())
                // mcs-lint: allow(panic, ReproConfig is validated at construction)
                .expect("ReproConfig always yields a valid TraceConfig")
        })
    }

    /// The full analysis (trace generated and analysed on first use).
    pub fn analysis(&mut self) -> &FullAnalysis {
        let analysis = match self.analysis.take() {
            Some(analysis) => analysis,
            None => {
                let pipeline = self.cfg.pipeline;
                // Sharded over `pipeline.threads` workers; bit-identical
                // for any thread count.
                let Ok((analysis, _)) = analyze(self.generator(), &pipeline, &mut Registry::new());
                analysis
            }
        };
        self.analysis.insert(analysis)
    }

    /// Runs one experiment.
    pub fn run(&mut self, id: ExperimentId) -> Report {
        use ExperimentId::*;
        match id {
            T1 => self.exp_t1(),
            F1 => self.exp_f1(),
            F3 => self.exp_f3(),
            F4 => self.exp_f4(),
            F5 => self.exp_f5(),
            F6T2 => self.exp_f6_t2(),
            F7 => self.exp_f7(),
            T3 => self.exp_t3(),
            F8 => self.exp_f8(),
            F9 => self.exp_f9(),
            F10 => self.exp_f10(),
            F12 => self.exp_f12(),
            F13 => self.exp_f13(),
            F14 => self.exp_f14(),
            F15 => self.exp_f15(),
            F16 => self.exp_f16(),
            A1 => self.exp_a1(),
            A2 => self.exp_a2(),
            A3 => self.exp_a3(),
            A4 => self.exp_a4(),
            A5 => self.exp_a5(),
            A6 => self.exp_a6(),
            A7 => self.exp_a7(),
        }
    }

    /// Runs every experiment in paper order.
    pub fn run_all(&mut self) -> Vec<Report> {
        ExperimentId::all().iter().map(|&id| self.run(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReproConfig;

    #[test]
    fn lazy_analysis_computed_once() {
        let mut suite = ExperimentSuite::new(ReproConfig::small(3));
        let records_a = suite.analysis().total_records;
        let records_b = suite.analysis().total_records;
        assert_eq!(records_a, records_b);
        assert!(records_a > 1000);
    }

    #[test]
    fn every_experiment_runs_on_small_config() {
        let mut suite = ExperimentSuite::new(ReproConfig::small(7));
        for &id in ExperimentId::all() {
            let report = suite.run(id);
            assert_eq!(report.id, id);
            assert!(!report.title.is_empty(), "{id}: empty title");
            assert!(!report.render().is_empty());
        }
    }

    /// One shared suite, targeted content assertions per report — each
    /// regenerated artifact must actually contain its figure's series.
    #[test]
    fn report_bodies_contain_their_figures() {
        let mut suite = ExperimentSuite::new(ReproConfig::small(11));
        let mut body = |id: &str| suite.run(id.parse().unwrap()).body;

        // T1: sample rows with the Table 1 columns.
        let t1 = body("t1");
        assert!(t1.contains("timestamp_ms") && t1.contains("proxied"));

        // F1: both volume series and the hour-of-day profile.
        let f1 = body("f1");
        assert!(f1.contains("stored GB per hour"));
        assert!(f1.contains("retrieved GB per hour"));
        assert!(f1.contains("Hour-of-day"));

        // F3: histogram + the fitted mixture table.
        let f3 = body("f3");
        assert!(f3.contains("Histogram of inter-operation time"));
        assert!(f3.contains("Gaussian mixture"));

        // F5: CDFs for both session kinds + both volume tables.
        let f5 = body("f5");
        assert!(f5.contains("store-only session"));
        assert!(f5.contains("retrieve-only session"));
        assert!(f5.contains("Fig. 5b") && f5.contains("Fig. 5c"));

        // F6: Table 2 blocks for both directions + model CCDFs.
        let f6 = body("f6");
        assert!(f6.contains("Table 2 (store-only)"));
        assert!(f6.contains("Table 2 (retrieve-only)"));
        assert!(f6.contains("chi-square"));

        // T3: all three client groups and all four classes.
        let t3 = body("t3");
        for needle in [
            "mobile only",
            "mobile & PC",
            "PC only",
            "upload-only",
            "occasional",
        ] {
            assert!(t3.contains(needle), "t3 missing {needle}");
        }

        // F8/F9: all four engagement groups.
        let f8 = body("f8");
        let f9 = body("f9");
        for needle in [
            "1 mobile dev",
            ">1 mobile dev",
            ">2 mobile dev",
            "mobile & PC",
        ] {
            assert!(f8.contains(needle), "f8 missing {needle}");
            assert!(f9.contains(needle), "f9 missing {needle}");
        }

        // F12: log-side CDFs and the simulated campaign table.
        let f12 = body("f12");
        assert!(f12.contains("log side"));
        assert!(f12.contains("Simulated §4 campaign"));

        // F13: both sub-figures for both devices.
        let f13 = body("f13");
        assert!(f13.contains("Fig. 13a") && f13.contains("Fig. 13b"));
        assert!(f13.contains("android") && f13.contains("ios"));

        // F16: the idle table and the idle/RTO CDFs.
        let f16 = body("f16");
        assert!(f16.contains("idle"));
        assert!(f16.contains("Fig. 16c"));

        // Ablations: each has its sweep table.
        assert!(body("a1").contains("chunk size"));
        assert!(body("a2").contains("SSAI off"));
        assert!(body("a4").contains("deferred"));
        assert!(body("a6").contains("connections"));
        assert!(body("a7").contains("failure point"));
    }
}
