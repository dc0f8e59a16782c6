//! The `dse_pareto` sweep must emit schema-valid JSON whose fronts are
//! genuinely Pareto (re-verified by the validator), whose work accounting
//! adds up, and whose design point sits on its front.
//!
//! Runs the quick sweep in-process — the CI workflow additionally runs
//! the binary itself (`dse_pareto --quick`), which re-validates what it
//! wrote to disk and cross-checks the parallel driver against a
//! single-threaded run.

use rap_bench::dse::{design_point, render_json, run_sweep, validate, SCHEMA};
use rap_obs::Obs;

#[test]
fn quick_sweep_emits_valid_json() {
    let run = run_sweep(true, None, &Obs::none());
    assert!(run.quick);
    let json = render_json(&run);
    assert!(json.contains(SCHEMA));
    let summary = validate(&json).expect("emitted JSON validates against the current schema");
    assert_eq!(summary.configurations, 48);
    // the quick space builds 6 untimed structures (static, reconfigurable
    // at depths 1–3, 1- and 2-way wagged); each is screened at most once
    assert!((1..=6).contains(&summary.screens), "{summary:?}");
    assert_eq!(summary.screens as u64, run.screens[0]);
    assert_eq!(run.screens[1..], [0, 0], "warm and restart screen nothing");
    assert!(summary.design_point_on_front);
    // every demand class of the quick space produced a front
    assert_eq!(summary.front_sizes.len(), 3);
}

#[test]
fn memoization_collapses_voltage_and_demand_replicas() {
    let run = run_sweep(true, None, &Obs::none());
    let stats = run.outcome.stats;
    // the warm pass ran the identical space against the populated
    // session: every structure analysed in the cold pass is an
    // artifact-cache hit (run_sweep has already asserted the fronts are
    // bit-identical). Only structures the cold pass *pruned* can still be
    // evaluated, and then only when parallel scheduling lets one slip
    // past the warm pruner — on one thread the count is exactly 0.
    assert!(
        run.warm_stats.full_evaluations <= stats.pruned,
        "{:?}",
        run.warm_stats
    );
    assert!(
        run.warm_stats.memo_hits >= stats.memo_hits,
        "{:?}",
        run.warm_stats
    );
    // 48 enumerated configurations share only 12 distinct structures
    // (2 sizings × (1 static + 3 reconfigurable depths + 2 wagged)), and
    // the memo's in-flight reservation guarantees each structure is fully
    // evaluated at most once *regardless of thread scheduling* — so this
    // bound is exact, not a heuristic margin
    assert!(stats.full_evaluations <= 12, "{stats:?}");
    assert!(stats.memo_hits > 0, "{stats:?}");
    assert_eq!(
        stats.full_evaluations + stats.memo_hits + stats.pruned,
        stats.enumerated
    );
}

#[test]
fn quick_design_point_has_an_exact_period() {
    let run = run_sweep(true, None, &Obs::none());
    let (label, workload) = design_point(true);
    let e = run
        .outcome
        .front(workload)
        .iter()
        .find(|e| e.label == label)
        .expect("design point on its front");
    // reconfigurable(3) at depth 2, OPE delays: the exact analysis is
    // cross-checked against the timed simulator elsewhere; here we pin
    // that the sweep reports a sane positive period and phase count
    assert!(e.period_units > 0.0 && e.period_units.is_finite());
    assert!(e.phases >= 1);
    assert!(!e.check_violated);
}

/// `json` with the `screens` count of the `pass`-th block (0 cold, 1 warm,
/// 2 restart) set to `value`.
fn with_screens(json: &str, pass: usize, value: usize) -> String {
    let key = "\"screens\": ";
    let at = json
        .match_indices(key)
        .nth(pass)
        .expect("three screens counts")
        .0
        + key.len();
    let digits = json[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    format!("{}{value}{}", &json[..at], &json[at + digits..])
}

#[test]
fn validator_rejects_screen_counts_a_pass_cannot_have() {
    let run = run_sweep(true, None, &Obs::none());
    let json = render_json(&run);
    let full = run.outcome.stats.full_evaluations;
    for (pass, value, why) in [
        (0, 0, "need 1 <= screens"),
        (0, full + 1, "need 1 <= screens"),
        (1, 1, "warm pass re-ran"),
        (2, 1, "restarted sweep re-ran"),
    ] {
        let err = validate(&with_screens(&json, pass, value)).unwrap_err();
        assert!(err.contains(why), "{err}");
    }
    // the recorded counts themselves validate
    validate(&with_screens(&json, 0, run.screens[0] as usize)).unwrap();
}

/// The committed full-sweep document validates, and the validator refuses
/// a full document whose screens left any verdict inconclusive.
#[test]
fn committed_full_sweep_decides_every_screen() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dse.json");
    let json = std::fs::read_to_string(path).expect("BENCH_dse.json is committed");
    let summary = validate(&json).expect("the committed document validates");
    assert_eq!(summary.screens, 16);
    let undecided = json.replacen("\"check_inconclusive\": 0", "\"check_inconclusive\": 3", 1);
    assert_ne!(undecided, json, "the document records check_inconclusive 0");
    let err = validate(&undecided).unwrap_err();
    assert!(err.contains("check_inconclusive"), "{err}");
}
