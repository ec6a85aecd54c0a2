//! Quickstart: generate a synthetic mobile cloud storage trace, run the
//! paper's analysis pipeline over it, and print the headline findings.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mcs::analysis::{analyze, PipelineConfig};
use mcs::obs::Registry;
use mcs::render::{pct, secs};
use mcs::trace::{TraceConfig, TraceGenerator};

fn main() {
    // 1. A one-week trace from 3 000 mobile users (fully deterministic).
    let cfg = TraceConfig {
        seed: 2016,
        mobile_users: 3_000,
        pc_only_users: 800,
        ..TraceConfig::default()
    };
    let gen = TraceGenerator::new(cfg).expect("valid config");
    println!(
        "generated population: {} users, {} devices",
        gen.users().len(),
        gen.users().iter().map(|u| u.devices.len()).sum::<usize>()
    );

    // 2. The paper's two-pass analysis: derive τ, sessionise, fit models.
    let Ok((analysis, _)) = analyze(&gen, &PipelineConfig::default(), &mut Registry::new());
    println!(
        "analysed {} records from {} users -> {} sessions",
        analysis.total_records, analysis.total_users, analysis.total_sessions
    );

    // 3. Headline findings, as the paper reports them.
    println!("\n-- session structure (Fig. 3 / §3.1.1) --");
    println!(
        "derived session threshold tau = {}",
        secs(analysis.tau.tau_s)
    );
    if let Some(g) = &analysis.tau.gmm {
        println!(
            "interval modes: within-session {} / between-session {}",
            secs(10f64.powf(g.components[0].mean)),
            secs(10f64.powf(g.components[1].mean)),
        );
    }
    println!(
        "session mix: {} store-only, {} retrieve-only, {} mixed",
        pct(analysis.sessions.store_only_frac()),
        pct(analysis.sessions.retrieve_only_frac()),
        pct(analysis.sessions.mixed_frac()),
    );

    println!("\n-- file sizes (Table 2) --");
    if let Some(fit) = &analysis.filesize_store {
        if let Some(m) = &fit.mixture {
            for c in &m.components {
                println!(
                    "store component: alpha {} at {:.1} MB",
                    pct(c.weight),
                    c.mean
                );
            }
        }
    }

    println!("\n-- the backup-service verdict (§3.2, Fig. 9) --");
    use mcs::analysis::engagement::EngagementGroup;
    let one = analysis
        .engagement
        .retrieval_after_upload(EngagementGroup::OneMobileDev);
    println!(
        "mobile-only uploaders who never retrieve within the week: {}",
        pct(one.frac_never())
    );
    let uploads_dominate = analysis.sessions.store_only_frac() > 0.5;
    println!(
        "=> the service is {} for mobile users",
        if uploads_dominate && one.frac_never() > 0.5 {
            "a backup service"
        } else {
            "NOT clearly backup-dominated (unexpected for this workload)"
        }
    );
}
