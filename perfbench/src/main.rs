//! The WHISPER benchmark: five loaded workloads over the real stack,
//! end-to-end and per-layer metrics, one traced run. See `README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--out <file>]
//!     --all | --selfcheck | --smoke | --describe
//! ```
//!
//! # What the benchmark imports
//!
//! It reaches the stack through public items only, and carries its own
//! population builder and load app so that a refactor of the repository's
//! experiment harness cannot change it. A refactor of the crates must
//! keep these exported:
//!
//! * `whisper_net`: `NodeId`, `Endpoint`, `Payload`, `SimDuration`,
//!   `SimTime`; `sim::{Sim, SimConfig, Ctx, Protocol}`;
//!   `nat::{NatDistribution, NatType}`; `metrics::Metrics`;
//!   `payload::PayloadPool`; `sched::{EventQueue, EventKey, Keyed,
//!   Scheduler}`; `wire::{WireEncode, WireDecode}`.
//! * `whisper_pss`: `NylonConfig`, `NylonCore`, `NylonEvent`, `View`,
//!   `ViewEntry`, `messages::NylonMsg`.
//! * `whisper_core`: `WhisperConfig`, `WhisperNode`, `WhisperApi`,
//!   `GroupApp`, `GroupId`, `PrivateEntry`, `Wcl::{notify_response,
//!   flush_circuits, has_cached_route}` (through `WhisperApi::wcl`),
//!   `ppss::descriptor::{GroupDescriptor, MemberDot}`.
//! * `whisper_crypto`: `rsa::{KeyPair, PublicKey}`, `aes::{Aes128,
//!   AesKey, CtrNonce}`, `circuit::{seal_layers, CircuitEntry}`,
//!   `onion::{build_onion, peel, peel_with_body, PeelResult}`,
//!   `sha256::Sha256`.
//! * `whisper_rand`: `Rng`, `SeedableRng`, `rngs::StdRng`.
//! * Methods: `Sim::{new, add_node, remove_node, run_for_secs,
//!   with_node_ctx, node, node_mut, node_ids, nat_type, len, now, metrics,
//!   metrics_mut, in_flight_msgs}`, `SimConfig::{cluster, planetlab,
//!   with_expected_nodes, with_shards, with_threads, with_profiling}`,
//!   `Metrics::{counter, counter_names, samples, sample_names, traffic,
//!   reset_counters_and_samples}`, `NylonCore::{new, set_bootstrap,
//!   on_start, on_message, on_timer, on_restart, cycles_run}`,
//!   `WhisperNode::{with_app, nylon_mut, create_group, invite, join_group,
//!   with_api, app, ppss}`, `Ppss::{group_ids, group}`, `GroupState::view`,
//!   `WhisperApi::{id, private_view, send_private_tracked,
//!   send_private_to_entry, make_persistent, set_app_timer}`.
//! * Counter and sample names read from `sim.metrics()`: see `report.rs`
//!   and `run.rs`.

mod catalogue;
mod host;
mod load;
mod population;
mod probes;
mod report;
mod run;
mod spec;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use catalogue::{Metric, END_TO_END, PER_LAYER};
use report::Values;
use spec::Spec;

/// Seed used when none is given; seed 11 is held out for later claims.
const DEFAULT_SEED: u64 = 7;
/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u32 = 8;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Windows timed on each population but the last, at least.
const EARLY_WINDOWS: usize = 2;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    mode: Mode,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    One,
    All,
    Selfcheck,
    Smoke,
    Describe,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        traced: false,
        out: None,
        mode: Mode::One,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.traced = value()? == "1",
            "--traced" => args.traced = true,
            "--out" => args.out = Some(value()?),
            "--all" => args.mode = Mode::All,
            "--selfcheck" => args.mode = Mode::Selfcheck,
            "--smoke" => args.mode = Mode::Smoke,
            "--describe" => args.mode = Mode::Describe,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Everything one run of one workload produced.
struct Outcome {
    workload: &'static str,
    seed: u64,
    traced: bool,
    values: Values,
    ops_attempted: u64,
    ops_failed: u64,
    bad_echo: u64,
    /// Per measured window: CPU s, wall s, ops completed.
    windows: Vec<[f64; 3]>,
    rtt_samples: usize,
    sim_digest: String,
    inputs_digest: String,
    violations: Vec<String>,
}

/// Runs one workload: untraced for the end-to-end metrics, or — traced —
/// only the reported windows, untraced and then traced, for the per-layer
/// ones (the end-to-end metrics of that short untraced run come along).
fn run_one(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    // `setup_s` is reported by the untraced run only.
    let setups = if traced { 1 } else { SETUPS };
    // Every population measures for an equal share of `seconds`: the
    // earlier ones host time only, the last one the reported windows too.
    let share = if traced { 0.0 } else { seconds / setups as f64 };
    let mut setup_times = Vec::new();
    let mut early_windows = Vec::new();
    let mut built = None;
    for i in 0..setups {
        drop(built.take()); // free the previous population first
        let (mut pop, inputs, secs) = run::set_up(spec, seed, false);
        setup_times.push(secs);
        if i + 1 < setups {
            early_windows.extend(run::host_windows(&mut pop, EARLY_WINDOWS, share));
        }
        built = Some((pop, inputs));
    }
    let (mut pop, inputs) = built.expect("at least one set-up");
    let mut measured = run::measure(&mut pop, share);
    measured.windows.splice(0..0, early_windows);
    let mut violations = measured.checkpoint.violations.clone();

    let mut values = report::end_to_end(&measured, host::median(setup_times));
    if traced {
        let mut probes = probes::run_static();
        if spec.full_stack {
            probes::run_wcl(&mut probes, &mut pop);
        }
        let f = pop.formation;
        probes.values.insert("ppss.probe.create_group_ns", f.create_group_ns);
        probes.values.insert("ppss.probe.invite_ns", f.invite_ns);
        probes.values.insert("ppss.probe.join_ns", f.join_ns);
        drop(pop);

        let (mut traced_pop, _, _) = run::set_up(spec, seed, true);
        trace::reset();
        let traced_run = run::measure(&mut traced_pop, 0.0);
        violations.extend(traced_run.checkpoint.violations.iter().map(|v| format!("traced: {v}")));
        if traced_run.checkpoint.sim_digest != measured.checkpoint.sim_digest {
            violations.push("sim_digest differs between the untraced and the traced run".into());
        }
        values.extend(report::per_layer(spec, &measured, &traced_run.checkpoint, &probes));
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
        let path =
            std::path::Path::new(&dir).join("benchmark").join(format!("{}.spans.jsonl", spec.name));
        match trace::write_spans(&path) {
            Ok(n) => println!("# {n} sampled spans written to {}", path.display()),
            Err(e) => violations.push(format!("span file {}: {e}", path.display())),
        }
    }

    let c = &measured.checkpoint;
    Outcome {
        workload: spec.name,
        seed,
        traced,
        values,
        ops_attempted: c.ops_attempted,
        ops_failed: c.ops_attempted - c.ops_ok,
        bad_echo: c.app.bad_echo,
        windows: measured.windows.iter().map(|w| [w.cpu_s, w.wall_s, w.ops_done as f64]).collect(),
        rtt_samples: c.rtt_us.len(),
        sim_digest: c.sim_digest.clone(),
        inputs_digest: inputs.digest,
        violations,
    }
}

fn catalogue_of(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn value_of(o: &Outcome, m: &Metric) -> f64 {
    let v = o.values.get(m.name).copied().unwrap_or(0.0);
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// End-to-end metrics, and the per-layer ones after a traced run.
fn printed_metrics(o: &Outcome) -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().chain(if o.traced { PER_LAYER } else { &[] })
}

/// Every metric by name and unit, then the identifying rows.
fn print_table(o: &Outcome) {
    println!("# workload {} seed {} traced {}", o.workload, o.seed, o.traced as u8);
    for m in printed_metrics(o) {
        println!("{:<40} {:>18.4} {}", m.name, value_of(o, m), m.unit);
    }
    println!("{:<40} {:>18}", "ops_attempted", o.ops_attempted);
    println!("{:<40} {:>18}", "ops_failed", o.ops_failed);
    println!("{:<40} {:>18}", "rtt_samples", o.rtt_samples);
    println!("{:<40} {:>18}", "windows", o.windows.len());
    println!("{:<40} {}", "sim_digest", o.sim_digest);
    println!("{:<40} {}", "inputs_digest", o.inputs_digest);
    for v in &o.violations {
        println!("VIOLATION {v}");
    }
}

fn metrics_json<'a>(o: &Outcome, metrics: impl Iterator<Item = &'a Metric>) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            value_of(o, m),
            m.unit
        )
        .expect("writing to a String cannot fail");
    }
    s.push('}');
    s
}

/// The driver's result line. `failed` counts operations whose *result*
/// was wrong (a reply that did not echo its request); requests lost on a
/// lossy, churning network are an outcome and are in `ops_ok_share`.
fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.violations.is_empty(),
        o.ops_attempted.max(1),
        o.bad_echo,
        metrics_json(o, catalogue_of(o.traced).iter())
    )
}

/// The full report of one run, for `--out`.
fn report_json(o: &Outcome) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"ops_attempted\": {}, \
         \"ops_failed\": {}, \"rtt_samples\": {}, \"windows\": {:?}, \"sim_digest\": \"{}\", \
         \"inputs_digest\": \"{}\", \"correct\": {}, \"metrics\": {}}}\n",
        o.workload,
        o.seed,
        o.traced,
        o.ops_attempted,
        o.ops_failed,
        o.rtt_samples,
        o.windows,
        o.sim_digest,
        o.inputs_digest,
        o.violations.is_empty(),
        metrics_json(o, printed_metrics(o))
    )
}

/// `BENCHMARK.json`, generated from the catalogue and the workload list.
fn describe(specs: &[Spec]) -> String {
    let mut s = format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    );
    for (i, spec) in specs.iter().enumerate() {
        let comma = if i + 1 < specs.len() { "," } else { "" };
        writeln!(s, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}", spec.name, spec.why)
            .expect("String write");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            if m.higher { "higher" } else { "lower" },
            m.bound.expect("end-to-end metrics have a bound")
        )
        .expect("String write");
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            if m.higher { "higher" } else { "lower" }
        )
        .expect("String write");
    }
    s.push_str("  ]\n}\n");
    s
}

/// `BENCHMARK.json`, when the benchmark runs from the repository root,
/// must be what the catalogue and the workload list generate.
fn manifest_matches(specs: &[Spec]) -> bool {
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(on_disk) if on_disk != describe(specs) => {
            println!("FAIL: BENCHMARK.json differs from `perfbench --describe`");
            false
        }
        _ => true,
    }
}

/// Relative distance of two runs of one host metric.
fn spread(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.min(b).max(f64::MIN_POSITIVE)
}

/// `--selfcheck`: every workload twice on one seed. Simulated metrics and
/// digests must be bit-equal, host metrics within their bound; the
/// spreads printed here are what justify the bounds.
fn selfcheck(specs: &[Spec], seed: u64, seconds: f64) -> bool {
    let mut ok = true;
    let mut gossip_digests = Vec::new();
    for spec in specs {
        let a = run_one(spec, seed, seconds, false);
        let b = run_one(spec, seed, seconds, false);
        print_table(&a);
        ok &= a.violations.is_empty() && b.violations.is_empty();
        if a.sim_digest != b.sim_digest || a.inputs_digest != b.inputs_digest {
            println!(
                "SELFCHECK FAIL {}: digests differ between two runs of seed {seed}",
                spec.name
            );
            ok = false;
        }
        for m in END_TO_END {
            let (x, y) = (value_of(&a, m), value_of(&b, m));
            let bound = m.bound.expect("end-to-end metrics have a bound");
            let verdict = match m.source {
                // `VmHWM` is a high-water mark of the whole process, so
                // only the first run of a process reads it meaningfully.
                catalogue::Source::Host if m.name == "peak_rss_mib" => {
                    "ok (not comparable in one process)"
                }
                catalogue::Source::Host if spread(x, y) <= bound => "ok",
                catalogue::Source::Host => "OUT OF BOUND",
                _ if x.to_bits() == y.to_bits() => "ok (bit-equal)",
                _ => "NOT BIT-EQUAL",
            };
            println!(
                "selfcheck {:<16} {:<24} {:>16.4} {:>16.4} spread {:>7.4} bound {:>5.2} {verdict}",
                spec.name,
                m.name,
                x,
                y,
                spread(x, y),
                bound
            );
            ok &= verdict.starts_with("ok");
        }
        if !spec.full_stack {
            gossip_digests.push(a.sim_digest.clone());
        }
    }
    ok & gossip_digests_agree(&gossip_digests)
}

/// The sharded gossip workload must simulate exactly what the 1-shard one
/// does.
fn gossip_digests_agree(digests: &[String]) -> bool {
    let agree = digests.windows(2).all(|w| w[0] == w[1]);
    if !agree {
        println!("FAIL: sim_digest differs between gossip_scale and gossip_scale_mt");
    }
    agree
}

/// `--all`: every workload untraced, then traced. `--smoke`: the traced
/// run only, which measures untraced first anyway.
fn run_all(specs: &[Spec], seed: u64, seconds: f64, modes: &[bool], out: Option<&str>) -> bool {
    let mut ok = true;
    let mut gossip_digests = Vec::new();
    let mut reports = String::new();
    for spec in specs {
        for &traced in modes {
            let o = run_one(spec, seed, seconds, traced);
            print_table(&o);
            ok &= o.violations.is_empty();
            reports.push_str(&report_json(&o));
            if !spec.full_stack && traced {
                gossip_digests.push(o.sim_digest.clone());
            }
        }
    }
    if let Some(path) = out {
        std::fs::write(path, reports).expect("the --out file is writable");
    }
    ok & gossip_digests_agree(&gossip_digests)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let specs = spec::all();
    let ok = match args.mode {
        Mode::Describe => {
            print!("{}", describe(&specs));
            true
        }
        Mode::Selfcheck => selfcheck(&specs, args.seed, args.seconds),
        Mode::All => run_all(&specs, args.seed, args.seconds, &[false, true], args.out.as_deref()),
        Mode::Smoke => {
            let small: Vec<Spec> = specs.iter().map(Spec::smoke).collect();
            run_all(&small, args.seed, 0.0, &[true], args.out.as_deref()) & manifest_matches(&specs)
        }
        Mode::One => {
            let Some(spec) = specs.iter().find(|s| Some(s.name) == args.workload.as_deref()) else {
                eprintln!(
                    "perfbench: --workload must be one of {:?}",
                    specs.iter().map(|s| s.name).collect::<Vec<_>>()
                );
                return ExitCode::from(2);
            };
            let o = run_one(spec, args.seed, args.seconds, args.traced);
            print_table(&o);
            if let Some(path) = &args.out {
                std::fs::write(path, report_json(&o)).expect("the --out file is writable");
            }
            // The result line carries the verdict; the exit code only
            // says that there is one.
            println!("{}", result_line(&o));
            true
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
