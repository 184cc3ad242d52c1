//! The claims of the paper's evaluation (§V), asserted on what the
//! experiments return. Two tiers check the same claims:
//!
//! * `quick::*` — the experiments at `Params::quick()`, ≈ 6 s in release
//!   (`scripts/verify.sh` runs them). In a debug build they take more than a
//!   minute, so there they are ignored:
//!   `cargo test --release --offline --test paper_claims`
//! * `paper::*` — `Params::paper()`, ≈ 2 minutes in release, `#[ignore]`d;
//!   the only tier that sweeps enough subscriptions for Fig. 8's claims.
//!   `scripts/paper_tables.sh` runs it and pastes its verdicts into
//!   EXPERIMENTS.md:
//!   `cargo test --release --offline --test paper_claims -- --ignored`
//!
//! Each experiment runs once per tier and its claims share the result. A
//! claim the tree does not meet is a finding: its test fails, and its bound
//! is not loosened to make it pass.

use std::sync::OnceLock;

use whisper_bench::experiments::fig5::Fig5;
use whisper_bench::experiments::fig6::{self, Fig6};
use whisper_bench::experiments::fig7::Fig7;
use whisper_bench::experiments::fig8::Fig8;
use whisper_bench::experiments::fig9::Fig9;
use whisper_bench::experiments::table1::Table1;
use whisper_bench::experiments::table2::{self, Table2};

/// One tier: each experiment behind a `OnceLock`, and one `#[test]` per
/// claim below, carrying `$attr`; `$extra` items join the module.
macro_rules! tier {
    ($tier:ident, $params:ident, #[$attr:meta] $($extra:item)*) => {
        mod $tier {
            use super::*;
            use whisper_bench::experiments::{fig5, fig6, fig7, fig9, table1, table2};

            fn fig5() -> &'static Fig5 {
                static R: OnceLock<Fig5> = OnceLock::new();
                R.get_or_init(|| fig5::run(&fig5::Params::$params()))
            }
            fn fig6() -> &'static Fig6 {
                static R: OnceLock<Fig6> = OnceLock::new();
                R.get_or_init(|| fig6::run(&fig6::Params::$params()))
            }
            fn table1() -> &'static Table1 {
                static R: OnceLock<Table1> = OnceLock::new();
                R.get_or_init(|| table1::run(&table1::Params::$params()))
            }
            fn fig7() -> &'static Fig7 {
                static R: OnceLock<Fig7> = OnceLock::new();
                R.get_or_init(|| fig7::run(&fig7::Params::$params()))
            }
            fn table2() -> &'static Table2 {
                static R: OnceLock<Table2> = OnceLock::new();
                R.get_or_init(|| table2::run(&table2::Params::$params()))
            }
            fn fig9() -> &'static Fig9 {
                static R: OnceLock<Fig9> = OnceLock::new();
                R.get_or_init(|| fig9::run(&fig9::Params::$params()))
            }

            #[test] #[$attr] fn table1_no_churn_succeeds_first_try() { super::table1_no_churn_succeeds_first_try(table1()) }
            #[test] #[$attr] fn table1_first_try_falls_with_churn() { super::table1_first_try_falls_with_churn(table1()) }
            #[test] #[$attr] fn table1_buckets_sum_to_100() { super::table1_buckets_sum_to_100(table1()) }
            #[test] #[$attr] fn table1_no_alternative_at_most_alternative() { super::table1_no_alternative_at_most_alternative(table1()) }
            #[test] #[$attr] fn fig5_clustering_flat_across_pi() { super::fig5_clustering_flat_across_pi(fig5()) }
            #[test] #[$attr] fn fig5_p_node_in_degree_rises_with_pi() { super::fig5_p_node_in_degree_rises_with_pi(fig5()) }
            #[test] #[$attr] fn fig6_key_sampling_is_a_flat_add_on() { super::fig6_key_sampling_is_a_flat_add_on(fig6()) }
            #[test] #[$attr] fn fig6_p_n_gap_widest_at_20_percent_publics() { super::fig6_p_n_gap_widest_at_20_percent_publics(fig6()) }
            #[test] #[$attr] fn fig7_cluster_exchanges_within_500_ms() { super::fig7_cluster_exchanges_within_500_ms(fig7()) }
            #[test] #[$attr] fn fig7_planetlab_over_80_percent_within_2_s() { super::fig7_planetlab_over_80_percent_within_2_s(fig7()) }
            #[test] #[$attr] fn fig7_network_dominates_crypto() { super::fig7_network_dominates_crypto(fig7()) }
            #[test] #[$attr] fn table2_rsa_dominates_aes() { super::table2_rsa_dominates_aes(table2()) }
            #[test] #[$attr] fn table2_p_nodes_pay_2_to_4_times() { super::table2_p_nodes_pay_2_to_4_times(table2()) }
            #[test] #[$attr] fn table2_totals_a_sliver_of_the_cycle() { super::table2_totals_a_sliver_of_the_cycle(table2()) }
            #[test] #[$attr] fn fig9_perfect_ring() { super::fig9_perfect_ring(fig9()) }
            #[test] #[$attr] fn fig9_every_query_at_its_owner() { super::fig9_every_query_at_its_owner(fig9()) }

            $($extra)*
        }
    };
}

tier!(quick, quick, #[cfg_attr(debug_assertions, ignore = "over a minute in debug; verify.sh runs it in release")]);

tier! {
    paper, paper, #[ignore = "paper scale, ≈ 2 minutes in release"]

    fn fig8() -> &'static Fig8 {
        use whisper_bench::experiments::fig8;
        static R: OnceLock<Fig8> = OnceLock::new();
        R.get_or_init(|| fig8::run(&fig8::Params::paper()))
    }

    #[test]
    #[ignore = "paper scale"]
    fn fig8_cost_per_added_group_is_flat() {
        super::fig8_cost_per_added_group_is_flat(fig8())
    }

    #[test]
    #[ignore = "paper scale"]
    fn fig8_p_nodes_pay_1_5_to_2_5_times() {
        super::fig8_p_nodes_pay_1_5_to_2_5_times(fig8())
    }
}

/// Whether every value lies within ± `tolerance` of their mean.
fn within_of_mean(values: &[f64], tolerance: f64) -> bool {
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    values.iter().all(|v| (v / mean - 1.0).abs() <= tolerance)
}

/// Table I, "No churn": every route succeeds on its first path (paper:
/// 100 %).
fn table1_no_churn_succeeds_first_try(t: &Table1) {
    let i = t
        .params
        .churn_rates
        .iter()
        .position(|&x| x == 0.0)
        .expect("a no-churn row");
    let [first, ..] = t.rows[i].shares();
    assert!(
        first >= 99.9,
        "no churn: {first:.2} % first-try, below 99.9 %"
    );
}

/// Table I: first-try success does not rise as churn rises.
fn table1_first_try_falls_with_churn(t: &Table1) {
    let first: Vec<f64> = t.rows.iter().map(|r| r.shares()[0]).collect();
    assert!(
        first.windows(2).all(|w| w[0] >= w[1]),
        "first-try {first:.2?} % over churn {:?}",
        t.params.churn_rates
    );
}

/// Table I: Success, Alt. and No alt. partition the routes that count.
fn table1_buckets_sum_to_100(t: &Table1) {
    for (x, r) in t.params.churn_rates.iter().zip(&t.rows) {
        let sum: f64 = r.shares().iter().sum();
        assert!(
            (sum - 100.0).abs() <= 0.01,
            "churn {x} %/min: buckets sum to {sum} %"
        );
    }
}

/// Table I: alternatives absorb the first-try failures — "No alt." is never
/// larger than "Alt.".
fn table1_no_alternative_at_most_alternative(t: &Table1) {
    for (x, r) in t.params.churn_rates.iter().zip(&t.rows) {
        let [_, alt, no_alt] = r.shares();
        assert!(
            no_alt <= alt,
            "churn {x} %/min: No alt. {no_alt:.2} % above Alt. {alt:.2} %"
        );
    }
}

/// Fig. 5: enforcing Π P-nodes per view has "negligible impact" on
/// clustering: the mean coefficient spreads by at most 0.02 across Π.
fn fig5_clustering_flat_across_pi(f: &Fig5) {
    let cc: Vec<f64> = f.settings.iter().map(|s| s.mean_cc).collect();
    let spread =
        cc.iter().cloned().fold(f64::MIN, f64::max) - cc.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        spread <= 0.02,
        "mean clustering {cc:.3?} over Π spreads by {spread:.3}"
    );
}

/// Fig. 5: P-node in-degree grows with Π.
fn fig5_p_node_in_degree_rises_with_pi(f: &Fig5) {
    let indeg: Vec<f64> = f.settings.iter().map(|s| s.indeg_p.mean()).collect();
    assert!(
        indeg.windows(2).all(|w| w[0] <= w[1]),
        "mean P-node in-degree {indeg:.2?} over Π"
    );
}

/// Fig. 6: piggybacking keys is a flat add-on — what "Unbiased + KS" adds to
/// "Unbiased (no keys)" up-link, per class and public ratio, is within
/// ± 25 % of its mean.
fn fig6_key_sampling_is_a_flat_add_on(f: &Fig6) {
    let add_on: Vec<f64> = f
        .tables
        .iter()
        .flat_map(|t| [0, 2].map(|class| t[1][class] - t[0][class]))
        .collect();
    assert!(
        within_of_mean(&add_on, 0.25),
        "key sampling adds {add_on:.3?} KB/cycle (N, P per ratio {:?})",
        fig6::RATIOS
    );
}

/// Fig. 6: the bias loads P-nodes most where they are scarce — at Π = 3 the
/// P − N up-link gap is widest at 20 % publics.
fn fig6_p_n_gap_widest_at_20_percent_publics(f: &Fig6) {
    let gap: Vec<f64> = f.tables.iter().map(|t| t[4][2] - t[4][0]).collect();
    let at_20 = fig6::RATIOS.iter().position(|&r| r == 0.20).expect("a 20 % row");
    assert!(
        gap.iter().all(|&g| g <= gap[at_20]),
        "P − N up-link gap {gap:.3?} KB/cycle at ratios {:?}",
        fig6::RATIOS
    );
}

/// Fig. 7: on the cluster every exchange completes within 500 ms.
fn fig7_cluster_exchanges_within_500_ms(f: &Fig7) {
    let share = f.profiles[0].rtt_s.clone().fraction_below(0.5);
    assert!(
        share == 1.0,
        "cluster: {:.1} % of exchanges within 0.5 s",
        share * 100.0
    );
}

/// Fig. 7: on PlanetLab more than 80 % of exchanges complete within 2 s.
fn fig7_planetlab_over_80_percent_within_2_s(f: &Fig7) {
    let share = f.profiles[1].rtt_s.clone().fraction_below(2.0);
    assert!(
        share > 0.8,
        "PlanetLab: {:.1} % of exchanges within 2 s",
        share * 100.0
    );
}

/// Fig. 7: network delays dominate — the median exchange RTT is at least
/// 100 × the median onion path build.
fn fig7_network_dominates_crypto(f: &Fig7) {
    for p in &f.profiles {
        let ratio = p.network_to_crypto();
        assert!(
            ratio >= 100.0,
            "{}: median RTT is {ratio:.0} × the median path build",
            p.label
        );
    }
}

/// Table II: RSA ≫ AES — at least 10 ×.
fn table2_rsa_dominates_aes(t: &Table2) {
    let ratio = t.rsa_over_aes();
    assert!(ratio >= 10.0, "RSA is {ratio:.2} × AES");
}

/// Table II: P-nodes, the mixes, spend 2–4 × the CPU of N-nodes (paper:
/// 2.13 ×).
fn table2_p_nodes_pay_2_to_4_times(t: &Table2) {
    let ratio = t.p_over_n();
    assert!((2.0..=4.0).contains(&ratio), "P/N CPU {ratio:.2} ×");
}

/// Table II: per node, AES + RSA stay below the paper's 0.65 % of the
/// one-minute cycle.
fn table2_totals_a_sliver_of_the_cycle(t: &Table2) {
    for i in 0..2 {
        let share = (t.aes[i] + t.rsa[i]) / table2::CYCLE_US * 100.0;
        assert!(share < 0.65, "class {i}: {share:.4} % of the cycle");
    }
}

/// Fig. 9: every member joins and T-Chord converges to the perfect ring.
fn fig9_perfect_ring(f: &Fig9) {
    let (ok, joined, size) = (f.correct_successors, f.joined, f.params.group_size);
    assert!(
        ok == joined && joined == size,
        "{ok} correct successors, {joined} joined, group of {size}"
    );
}

/// Fig. 9: every query issued completes, at the key's owner.
fn fig9_every_query_at_its_owner(f: &Fig9) {
    let (owner, completed, issued) = (f.correct_owner, f.completed, f.issued);
    assert!(
        owner == completed && completed == issued,
        "{owner} at the owner, {completed} completed, {issued} issued"
    );
}

/// Fig. 8: costs grow linearly with subscriptions — from 2 groups per node
/// on, what each added group costs (median up-link) is within ± 25 % of
/// its mean, per class.
fn fig8_cost_per_added_group_is_flat(f: &Fig8) {
    let from_2 = f
        .settings
        .windows(2)
        .position(|w| w[0].per_node >= 2)
        .expect("a step from 2 groups");
    for (row, class) in [(0, "P-nodes"), (2, "N-nodes")] {
        let steps = &f.step_costs(row)[from_2..];
        assert!(
            within_of_mean(steps, 0.25),
            "{class}: {steps:.3?} KB/s per added group"
        );
    }
}

/// Fig. 8: P-nodes pay more than N-nodes, about twice as much: the median
/// up-link ratio is in [1.5, 2.5] at every setting.
fn fig8_p_nodes_pay_1_5_to_2_5_times(f: &Fig8) {
    for s in &f.settings {
        let (p, n) = (
            s.rows[0].expect("P-nodes")[2],
            s.rows[2].expect("N-nodes")[2],
        );
        assert!(
            (1.5..=2.5).contains(&(p / n)),
            "{} groups per node: P/N median up-link {:.2}",
            s.per_node,
            p / n
        );
    }
}
