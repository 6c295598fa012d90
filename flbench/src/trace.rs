//! The traced run: per-layer metrics, timed around calls into each
//! layer's public functions from this benchmark's own code.
//!
//! Three parts. (1) Untraced and traced passes of the workload's first
//! replica alternate; the traced ones record a span around every
//! build, step and report, and the spans are written to
//! `flbench/out/trace-<workload>-<pid>.jsonl` at the end. (2) The
//! workload's federations are rebuilt from their public constructors
//! (checked against the `Scenario::build` digests) and stepped, giving
//! the live models. (3) Each layer's public functions are timed on
//! that live state.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use rand::SeedableRng;

use fedtrans::{seed_model, FedTransConfig, FedTransRuntime, ModelAggregator};
use ft_baselines::common::eval_on_client;
use ft_baselines::scatter_sink::ScatterSink;
use ft_baselines::submodel::{extract, KeepPlan};
use ft_baselines::{BaselineConfig, FedAvg, ServerOpt};
use ft_data::{FederatedDataset, ShardSource, SparseFederatedData};
use ft_fedsim::coordinator::{Coordinator, CoordinatorStats};
use ft_fedsim::device::DeviceTrace;
use ft_fedsim::report::{report_digest, RunReport};
use ft_fedsim::sink::DiscardSink;
use ft_fedsim::trainer::{client_seed, train_local, TrainTask};
use ft_fedsim::{
    select, AdversityConfig, Algorithm, AttackConfig, ClientUpdate, FedAvgSink, RobustSink,
    RoundManifest, TaskSpec, UpdateSink,
};
use ft_harness::{AlgorithmSpec, Scenario};
use ft_model::similarity::similarity_matrix;
use ft_model::{widen_cell, CellModel};
use ft_tensor::Tensor;
use serde::Value;

use crate::e2e::Ledger;
use crate::stats::{fastest, median, ms_since, now, timed};
use crate::workloads::Workload;

/// One recorded span: a call into a layer, with the span that caused it.
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// In-memory span recorder, written out when the run ends.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            origin: now(),
            spans: Vec::new(),
        }
    }

    fn us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span and returns its id.
    fn begin(&mut self, name: String, parent: Option<usize>) -> usize {
        let start_us = self.us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: f64::NAN,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in ms.
    fn end(&mut self, id: usize) -> f64 {
        let end_us = self.us();
        let span = &mut self.spans[id];
        span.end_us = end_us;
        (end_us - span.start_us) / 1e3
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"parent\": {parent}}}",
                s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Runs `f`, inside a span named `name` under `parent` when tracing;
/// returns the span's duration in ms too.
fn within<T>(
    spans: &mut Option<&mut Spans>,
    name: &str,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, Option<f64>) {
    match spans.as_deref_mut() {
        Some(s) => {
            let id = s.begin(name.to_owned(), parent);
            let out = f();
            (out, Some(s.end(id)))
        }
        None => (f(), None),
    }
}

/// What the traced run produced.
pub struct Trace {
    /// Operation counts for the result line.
    pub ledger: Ledger,
    /// Per-layer metrics, by name, value and unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Median milliseconds of `reps` calls of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&samples)
}

/// Median microseconds per call of `f`, timed in bursts of `burst`
/// calls so that calls far shorter than a clock read still resolve.
fn median_us_per_call(reps: usize, burst: usize, mut f: impl FnMut()) -> f64 {
    median_ms(reps, || {
        for _ in 0..burst {
            f();
        }
    }) * 1e3
        / burst as f64
}

/// Sum of a pass's timings, and the reports it produced.
struct Pass {
    ms: f64,
    reports: Vec<RunReport>,
    drivers: Vec<Box<dyn Algorithm>>,
    step_ms: Vec<f64>,
}

/// One build → rounds → report pass over `scenarios`. When `spans`
/// is given, every scenario is a span whose children are its build,
/// steps and report.
fn pass(
    scenarios: &[Scenario],
    rounds: usize,
    mut spans: Option<&mut Spans>,
    ledger: &mut Ledger,
) -> Pass {
    let start = now();
    let mut out = Pass {
        ms: 0.0,
        reports: Vec::new(),
        drivers: Vec::new(),
        step_ms: Vec::new(),
    };
    for sc in scenarios {
        let parent = spans.as_deref_mut().map(|s| s.begin(sc.name.clone(), None));
        let (built, _) = within(&mut spans, "build", parent, || sc.build());
        if let Some(mut driver) = ledger.op("build", built) {
            for _ in 0..rounds {
                let (stepped, ms) = within(&mut spans, "step", parent, || driver.step());
                out.step_ms.extend(ms);
                ledger.op("step", stepped);
            }
            let (reported, _) = within(&mut spans, "report", parent, || driver.report());
            if let Some(r) = ledger.op("report", reported) {
                crate::e2e::check_report(ledger, sc, rounds, &r);
                out.reports.push(r);
            }
            out.drivers.push(driver);
        }
        if let (Some(s), Some(id)) = (spans.as_deref_mut(), parent) {
            s.end(id);
        }
    }
    out.ms = ms_since(start);
    out
}

/// A workload's population in either representation.
enum Population {
    Dense(FederatedDataset),
    Sparse(SparseFederatedData),
}

impl Population {
    fn source(&self) -> &dyn ShardSource {
        match self {
            Population::Dense(d) => d,
            Population::Sparse(s) => s,
        }
    }

    fn input(&self) -> ft_data::InputSpec {
        match self {
            Population::Dense(d) => d.input(),
            Population::Sparse(s) => s.input(),
        }
    }
}

/// The adversity bundle a scenario installs (mirrors `Scenario::build`).
fn adversity(sc: &Scenario) -> AdversityConfig {
    AdversityConfig {
        attack: sc
            .attack
            .map(|a| AttackConfig {
                byzantine_prob: a.byzantine_prob,
                corruption: a.corruption,
                flip_labels: a.flip_labels,
            })
            .unwrap_or_default(),
        availability: sc.availability.clone().unwrap_or_default(),
        drift: sc.drift.unwrap_or_default(),
    }
}

fn baseline_config(sc: &Scenario) -> BaselineConfig {
    BaselineConfig {
        clients_per_round: sc.clients_per_round,
        local: sc.local,
        seed: sc.seed,
        eval_every: sc.eval_every,
        enforce_capacity: true,
        faults: sc.faults,
        eval_clients: sc.eval_clients,
        robust: sc.attack.map(|a| a.robust).unwrap_or_default(),
    }
}

/// The live federation the probes run on: its population, devices,
/// model suite, and how many rounds transformed the suite.
struct Live {
    population: Population,
    devices: DeviceTrace,
    models: Vec<CellModel>,
    transforms: usize,
    /// Median `Algorithm::step` time of this federation, in ms.
    step_ms: f64,
}

/// Rebuilds `sc` from its public constructors (FedTrans or FedAvg),
/// steps it through its rounds, and checks the report digest matches
/// `expected` from the `Scenario::build` path.
fn rebuild_live(sc: &Scenario, expected: Option<&str>, ledger: &mut Ledger) -> Option<Live> {
    let devices_for = |n: usize| sc.devices.generate(n);
    let mut step_ms = Vec::new();
    let (population, devices, models, transforms, report) = match sc.algorithm {
        AlgorithmSpec::FedTrans {
            max_models,
            transform_cooldown,
            gamma,
            delta,
            beta,
        } => {
            let data = sc.dataset.generate();
            let devices = devices_for(data.num_clients());
            let mut cfg = FedTransConfig::default()
                .with_clients_per_round(sc.clients_per_round)
                .with_gamma(gamma)
                .with_delta(delta)
                .with_beta(beta)
                .with_local(sc.local)
                .with_faults(sc.faults)
                .with_seed(sc.seed);
            cfg.max_models = max_models;
            cfg.transform_cooldown = transform_cooldown;
            let mut rt = ledger.op(
                "fedtrans build",
                FedTransRuntime::new(cfg, data.clone(), devices.clone()),
            )?;
            rt.set_round_options(sc.timing.round_options().with_env_overrides());
            rt.set_adversity(adversity(sc));
            let mut transforms = 0;
            for _ in 0..sc.rounds {
                let (r, ms) = timed(|| rt.step());
                step_ms.push(ms);
                transforms += usize::from(ledger.op("fedtrans step", r)?.transformed);
            }
            let report = ledger.op("fedtrans report", rt.report())?;
            let models = rt.models().to_vec();
            (Population::Dense(data), devices, models, transforms, report)
        }
        AlgorithmSpec::FedAvg {
            yogi_lr: None,
            prox_mu: None,
        } => {
            let population = if sc.sparse {
                Population::Sparse(SparseFederatedData::new(sc.dataset.clone()))
            } else {
                Population::Dense(sc.dataset.generate())
            };
            let devices = devices_for(population.source().num_clients());
            let (model, report) = match &population {
                Population::Dense(d) => fedavg_live(
                    sc,
                    d.clone(),
                    d.input(),
                    d.num_classes(),
                    &devices,
                    &mut step_ms,
                    ledger,
                )?,
                Population::Sparse(s) => fedavg_live(
                    sc,
                    s.clone(),
                    s.input(),
                    s.num_classes(),
                    &devices,
                    &mut step_ms,
                    ledger,
                )?,
            };
            (population, devices, vec![model], 0, report)
        }
        _ => return None,
    };
    let digest = report_digest(&report);
    ledger.check(Some(digest.as_str()) == expected, || {
        format!(
            "{}: rebuilt federation digest {digest} differs from Scenario::build's {expected:?}",
            sc.name
        )
    });
    Some(Live {
        population,
        devices,
        models,
        transforms,
        step_ms: median(&step_ms),
    })
}

/// The FedAvg arm of `Scenario::build`, stepped through its rounds:
/// returns the trained model and the report.
fn fedavg_live<D: ShardSource>(
    sc: &Scenario,
    data: D,
    input: ft_data::InputSpec,
    classes: usize,
    devices: &DeviceTrace,
    step_ms: &mut Vec<f64>,
    ledger: &mut Ledger,
) -> Option<(CellModel, RunReport)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(sc.seed.wrapping_add(0x5EED));
    let model = seed_model(&mut rng, input, classes, devices.min_capacity());
    let mut f = FedAvg::new(
        baseline_config(sc),
        data,
        devices.clone(),
        model,
        ServerOpt::Average,
    );
    f.set_round_options(sc.timing.round_options().with_env_overrides());
    f.set_adversity(adversity(sc));
    for _ in 0..sc.rounds {
        let (r, ms) = timed(|| f.step());
        step_ms.push(ms);
        ledger.op("fedavg step", r)?;
    }
    let report = f.report();
    Some((f.model().clone(), report))
}

/// The coordinator telemetry every algorithm's checkpoint carries.
fn coordinator_stats(state: &Value) -> ft_fedsim::Result<CoordinatorStats> {
    let coordinator = state
        .get("coordinator")
        .ok_or_else(|| ft_fedsim::SimError::snapshot("checkpoint has no coordinator"))?;
    ft_fedsim::driver::field(coordinator, "stats")
}

/// Runs the traced per-layer measurement of `workload` from `seed`.
pub fn run(workload: Workload, seed: u64, seconds: f64, scratch: &Path) -> Trace {
    let mut ledger = Ledger::default();
    let mut m: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let scenarios = workload.replica_scenarios(seed).swap_remove(0);
    let rounds = workload.rounds();

    // (1) Alternate untraced and traced passes: half as many pairs as
    // the end-to-end run makes timed federation runs, at least two.
    let mut spans = Spans::new();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    let pairs = (workload.repeats(seconds) * workload.timed_replicas() / 2).max(2);
    for _ in 0..pairs {
        plain_ms.push(pass(&scenarios, rounds, None, &mut ledger).ms);
        let p = pass(&scenarios, rounds, Some(&mut spans), &mut ledger);
        traced_ms.push(p.ms);
        last = Some(p);
    }
    let Some(traced) = last else {
        return Trace { ledger, metrics: m };
    };
    let trace_path = scratch.join(format!(
        "trace-{}-{}.jsonl",
        workload.name(),
        std::process::id()
    ));
    ledger.op("writing spans", spans.write(&trace_path));

    // Counted training FLOPs (2 per MAC, from the cost meter) over the
    // summed step time.
    let pmacs: f64 = traced.reports.iter().map(|r| r.pmacs).sum();
    let step_s: f64 = traced.step_ms.iter().sum::<f64>() / 1e3;
    let achieved_gflops = pmacs * 2e15 / step_s / 1e9;

    // Coordinator telemetry from each driver's checkpoint.
    let mut stats = CoordinatorStats::default();
    for d in &traced.drivers {
        if let Some(s) = ledger.op("coordinator stats", coordinator_stats(&d.checkpoint())) {
            stats.invitations += s.invitations;
            stats.results += s.results;
            stats.heartbeats += s.heartbeats;
            stats.messages_up += s.messages_up;
            stats.messages_down += s.messages_down;
            stats.rendezvous_dropouts += s.rendezvous_dropouts;
            stats.heartbeat_dropouts += s.heartbeat_dropouts;
        }
    }
    let total_rounds = (rounds * traced.drivers.len()).max(1) as f64;

    // Checkpoint layers, summed over the first federation's scenarios.
    let reps = 5;
    let (mut ck_bytes, mut ck_value, mut encode, mut parse, mut restore) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for (sc, d) in scenarios.iter().zip(&traced.drivers) {
        ck_value += median_ms(reps, || {
            std::hint::black_box(d.checkpoint());
        });
        let state = d.checkpoint();
        encode += median_ms(reps, || {
            std::hint::black_box(serde_json::to_string(&state).ok());
        });
        let json = serde_json::to_string(&state).unwrap_or_default();
        ck_bytes += json.len() as f64;
        parse += median_ms(reps, || {
            std::hint::black_box(serde_json::parse_value(&json).ok());
        });
        let Some(parsed) = ledger.op("parse checkpoint", serde_json::parse_value(&json)) else {
            continue;
        };
        let Some(mut fresh) = ledger.op("build", sc.build()) else {
            continue;
        };
        let mut restored = Ok(());
        restore += median_ms(reps, || restored = fresh.restore(&parsed));
        ledger.op("restore", restored);
    }

    // (2) The live federation: the FedTrans suite on paper-suite, the
    // FedAvg model elsewhere.
    let first = &scenarios[0];
    let expected = traced.reports.first().map(report_digest);
    let Some(live) = rebuild_live(first, expected.as_deref(), &mut ledger) else {
        return Trace { ledger, metrics: m };
    };
    let source = live.population.source();
    // The newest (largest) model of the suite.
    let model = live.models[live.models.len() - 1].clone();
    let mut rng = rand::rngs::StdRng::seed_from_u64(crate::workloads::mix(seed, 7));
    // A client with a full batch of training data and a test split.
    let client = (0..source.num_clients().min(1000))
        .find(|&c| {
            let s = source.shard(c);
            s.train_len() >= first.local.batch_size && s.test_len() > 0
        })
        .unwrap_or(0);
    let shard = source.shard(client).into_owned();

    // (3) Layer probes.
    // ft_tensor: calibration GEMM at a fixed shape.
    let n = 256;
    let a = Tensor::from_vec((0..n * n).map(|i| (i % 7) as f32 * 0.1).collect(), &[n, n])
        .expect("square calibration matrix");
    let b = a.clone();
    let gemm_ms = median_ms(15, || {
        std::hint::black_box(a.matmul(&b).ok());
    });
    let gemm_gflops = 2.0 * (n * n * n) as f64 / (gemm_ms * 1e-3) / 1e9;
    m.push(("tensor.gemm_gflops", gemm_gflops, "GFLOP/s"));
    m.push((
        "tensor.roofline_frac",
        achieved_gflops / gemm_gflops,
        "ratio",
    ));

    // ft_model / ft_nn on the live model and a real batch.
    let mut x = Tensor::default();
    let mut labels = Vec::new();
    shard.sample_batch_into(&mut rng, first.local.batch_size, &mut x, &mut labels);
    let mut probe = model.clone();
    m.push((
        "model.forward_us",
        median_ms(30, || {
            std::hint::black_box(probe.forward(&x).ok());
        }) * 1e3,
        "us",
    ));
    let mut backward = Vec::new();
    let mut optimizer = Vec::new();
    let mut sgd = ft_nn::Sgd::new(first.local.lr).with_momentum(first.local.momentum);
    for _ in 0..30 {
        probe.zero_grad();
        let dlogits = probe
            .forward(&x)
            .ok()
            .and_then(|logits| ft_nn::softmax_cross_entropy(&logits, &labels).ok())
            .map(|(_, d)| d);
        let Some(dlogits) = ledger.op("forward", dlogits.ok_or("forward or loss failed")) else {
            break;
        };
        let (r, ms) = timed(|| probe.backward(&dlogits));
        ledger.op("backward", r);
        backward.push(ms * 1e3);
        let (r, ms) = timed(|| {
            let mut cur = sgd.begin_step();
            probe.for_each_param_and_grad(&mut |p, g| cur.apply(p, g));
            cur.finish()
        });
        ledger.op("optimizer step", r);
        optimizer.push(ms * 1e3);
    }
    m.push(("model.backward_us", median(&backward), "us"));
    m.push(("nn.optimizer_us", median(&optimizer), "us"));

    // ft_data.
    let generate_ms = if first.sparse {
        median_ms(5, || {
            std::hint::black_box(SparseFederatedData::new(first.dataset.clone()));
        })
    } else {
        median_ms(5, || {
            std::hint::black_box(first.dataset.generate());
        })
    };
    m.push(("data.generate_ms", generate_ms, "ms"));
    let population = source.num_clients();
    let mut c = 0usize;
    m.push((
        "data.shard_us",
        median_us_per_call(15, 64, || {
            c = (c + 7919) % population;
            std::hint::black_box(source.shard(c));
        }),
        "us",
    ));
    m.push((
        "data.batch_us",
        median_us_per_call(15, 64, || {
            shard.sample_batch_into(&mut rng, first.local.batch_size, &mut x, &mut labels);
        }),
        "us",
    ));

    // fedsim device trace and selection.
    m.push((
        "fedsim.device_trace_ms",
        median_ms(5, || {
            std::hint::black_box(first.devices.generate(population));
        }),
        "ms",
    ));
    m.push((
        "fedsim.select_us",
        median_us_per_call(15, 64, || {
            std::hint::black_box(select::uniform(
                &mut rng,
                population,
                first.clients_per_round,
            ));
        }),
        "us",
    ));

    // fedsim trainer and executor, on the workload's FedAvg arm: one
    // model, so a round's tasks are known exactly. One cohort's tasks
    // run serially.
    let arm = scenarios
        .iter()
        .position(|s| matches!(s.algorithm, AlgorithmSpec::FedAvg { .. }))
        .unwrap_or(0);
    let fedavg = if arm == 0 {
        None
    } else {
        let expected = traced.reports.get(arm).map(report_digest);
        rebuild_live(&scenarios[arm], expected.as_deref(), &mut ledger)
    };
    let trainer = fedavg.as_ref().unwrap_or(&live);
    let cohort = select::uniform(&mut rng, population, first.clients_per_round);
    let mut serial = Vec::new();
    for (t, &cl) in cohort.iter().enumerate() {
        let mut local_model = trainer.models[0].clone();
        let s = trainer.population.source().shard(cl);
        if s.train_len() == 0 {
            continue;
        }
        let (r, ms) = timed(|| train_local(&mut local_model, cl, &s, &first.local, t as u64));
        ledger.op("train_local", r);
        serial.push(ms);
    }
    let threads = ft_fedsim::exec::client_threads().max(1) as f64;
    m.push(("fedsim.train_local_ms", median(&serial), "ms"));
    m.push(("fedsim.achieved_gflops", achieved_gflops, "GFLOP/s"));
    m.push((
        "fedsim.exec_parallel_eff",
        serial.iter().sum::<f64>() / (threads * trainer.step_ms),
        "ratio",
    ));

    // fedsim coordinator on a minimal model, under the workload's
    // faults, timing and adversity.
    let minimal = {
        let mut r = rand::rngs::StdRng::seed_from_u64(1);
        CellModel::dense(&mut r, model.input_width(), &[4], model.classes())
    };
    let mut coord = Coordinator::new(first.seed, first.faults, live.devices.clone());
    coord.set_options(first.timing.round_options().with_env_overrides());
    coord.set_adversity(adversity(first));
    let mut coord_ms = Vec::new();
    for round in 0..rounds as u32 {
        let invited = select::uniform(&mut rng, population, first.clients_per_round);
        let (r, ms) = timed(|| -> ft_fedsim::Result<()> {
            let admitted = coord.begin_round(round, &invited)?;
            let tasks = admitted
                .iter()
                .map(|&c| TrainTask {
                    client: c,
                    model: 0,
                    seed: client_seed(u64::from(round), c),
                })
                .collect();
            let models = std::slice::from_ref(&minimal);
            let local = &first.local;
            match &live.population {
                Population::Dense(d) => coord.train(tasks, models, d, local, &mut DiscardSink)?,
                Population::Sparse(s) => coord.train(tasks, models, s, local, &mut DiscardSink)?,
            };
            coord.finish_round()
        });
        if ledger.op("coordinator round", r).is_some() {
            coord_ms.push(ms);
        }
    }
    m.push(("fedsim.coordinator_round_ms", median(&coord_ms), "ms"));
    let per_round = |n: u64| n as f64 / total_rounds;
    m.push((
        "fedsim.heartbeats_per_round",
        per_round(stats.heartbeats),
        "count",
    ));
    m.push((
        "fedsim.messages_per_round",
        per_round(stats.messages_up + stats.messages_down),
        "count",
    ));
    m.push((
        "fedsim.dropouts_per_round",
        per_round(stats.rendezvous_dropouts + stats.heartbeat_dropouts),
        "count",
    ));
    m.push((
        "fedsim.delivered_frac",
        stats.results as f64 / stats.invitations.max(1) as f64,
        "ratio",
    ));

    // fedsim sinks: the grouped FedAvg fold FedTrans uses, the robust
    // sink the FedAvg arm uses (streaming FedAvg unless defended).
    let groups = live.models.len();
    let specs: Vec<TaskSpec> = cohort
        .iter()
        .enumerate()
        .map(|(task, &client)| TaskSpec {
            task,
            client,
            samples: 10 + task as u64,
        })
        .collect();
    let snapshots: Vec<Vec<Tensor>> = live.models.iter().map(CellModel::snapshot).collect();
    let (mut absorb_us, mut finish_us) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut sink: Box<dyn UpdateSink> = if groups > 1 {
            let group_of = (0..specs.len()).map(|t| t % groups).collect();
            Box::new(FedAvgSink::grouped(groups, group_of).with_delta_tracking())
        } else {
            Box::new(RobustSink::new(baseline_config(first).robust))
        };
        let manifest = RoundManifest {
            round: 0,
            tasks: &specs,
        };
        ledger.op("sink begin_round", sink.begin_round(&manifest));
        for spec in &specs {
            let w = snapshots[spec.task % groups].clone();
            let update = ClientUpdate {
                task: spec.task,
                client: spec.client,
                samples: spec.samples,
                delta: w.clone(),
                weights: w,
            };
            let (r, ms) = timed(|| sink.absorb(update));
            ledger.op("sink absorb", r);
            absorb_us.push(ms * 1e3);
        }
        let (r, ms) = timed(|| sink.finish());
        ledger.op("sink finish", r);
        finish_us.push(ms * 1e3);
    }
    m.push(("fedsim.sink_absorb_us", median(&absorb_us), "us"));
    m.push(("fedsim.sink_finish_us", median(&finish_us), "us"));

    // fedsim evaluation of one client.
    let eval_clients: Vec<usize> = (0..population.min(64)).collect();
    let mut eval_us = Vec::new();
    for &cl in &eval_clients {
        let s = source.shard(cl);
        let (_, ms) = timed(|| std::hint::black_box(eval_on_client(&model, &s)));
        eval_us.push(ms * 1e3);
    }
    m.push(("fedsim.eval_client_us", median(&eval_us), "us"));

    // fedtrans on the live suite.
    let refs: Vec<&CellModel> = live.models.iter().collect();
    m.push((
        "fedtrans.similarity_ms",
        median_ms(9, || {
            std::hint::black_box(similarity_matrix(&refs));
        }),
        "ms",
    ));
    let sims = similarity_matrix(&refs);
    let aggregator = ModelAggregator::new(&FedTransConfig::default());
    let per_model: Vec<Option<Vec<Tensor>>> = snapshots.iter().cloned().map(Some).collect();
    let ages: Vec<u32> = (0..groups as u32).rev().map(|a| 5 * a).collect();
    m.push((
        "fedtrans.soft_aggregate_ms",
        median_ms(9, || {
            std::hint::black_box(aggregator.soft_aggregate(&live.models, &per_model, &sims, &ages));
        }),
        "ms",
    ));
    let mut widened = Ok(());
    m.push((
        "fedtrans.transform_ms",
        median_ms(9, || {
            widened = widen_cell(&model, 0, 2.0, &mut rng).map(|c| {
                std::hint::black_box(c);
            });
        }),
        "ms",
    ));
    ledger.op("widen_cell", widened);
    m.push(("fedtrans.models", groups as f64, "count"));
    m.push(("fedtrans.transforms", live.transforms as f64, "count"));

    // ft_baselines: submodel extraction and the scatter fold, on the
    // capacity-sized global model HeteroFL/FLuID train.
    let global = {
        let mut r = rand::rngs::StdRng::seed_from_u64(first.seed.wrapping_add(0x610B));
        seed_model(
            &mut r,
            live.population.input(),
            model.classes(),
            live.devices.max_capacity(),
        )
    };
    let plan = KeepPlan::corner(&global, 0.5);
    m.push((
        "baselines.submodel_extract_us",
        median_ms(15, || {
            std::hint::black_box(extract(&global, &plan));
        }) * 1e3,
        "us",
    ));
    let sub = extract(&global, &plan).snapshot();
    let mut scatter_us = Vec::new();
    for _ in 0..5 {
        let mut sink = ScatterSink::new(&global, vec![&plan; specs.len()]);
        let manifest = RoundManifest {
            round: 0,
            tasks: &specs,
        };
        ledger.op("scatter begin_round", sink.begin_round(&manifest));
        for spec in &specs {
            let update = ClientUpdate {
                task: spec.task,
                client: spec.client,
                samples: spec.samples,
                weights: sub.clone(),
                delta: Vec::new(),
            };
            let (r, ms) = timed(|| sink.absorb(update));
            ledger.op("scatter absorb", r);
            scatter_us.push(ms * 1e3);
        }
        ledger.op("scatter finish", sink.finish());
    }
    m.push(("baselines.scatter_absorb_us", median(&scatter_us), "us"));

    // ft_harness / serde_json: the checkpoint round trip's layers.
    m.push(("harness.checkpoint_bytes", ck_bytes, "bytes"));
    m.push(("harness.checkpoint_value_ms", ck_value, "ms"));
    m.push(("serde_json.encode_ms", encode, "ms"));
    m.push(("serde_json.parse_ms", parse, "ms"));
    m.push((
        "serde_json.parse_mb_per_s",
        ck_bytes / 1e6 / (parse / 1e3),
        "MB/s",
    ));
    m.push(("harness.restore_ms", restore, "ms"));
    m.push((
        "tracing_overhead_frac",
        fastest(&traced_ms) / fastest(&plain_ms) - 1.0,
        "ratio",
    ));
    Trace { ledger, metrics: m }
}
