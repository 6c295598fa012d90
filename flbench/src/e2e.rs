//! The end-to-end run: closed batch runs of a workload's federations,
//! output checks, and the checkpoint round trip.
//!
//! A federation run builds each of its scenarios through
//! `Scenario::build`, steps its rounds back to back (no arrival
//! process) and reports. Workloads that kill and resume then run the
//! scenario again through `run_scenario`, stopped and resumed from its
//! checkpoint every few rounds.
//!
//! The amount of work is fixed by the workload and `--seconds`, never
//! by the wall clock. The first repeat runs every federation; the
//! outcome metrics (accuracy, PMACs) average over all of them, and each
//! timed scenario leaves its finished driver's checkpoint in a file.
//! Later repeats run only the timed federations again, in the same
//! order. After each repeat come some of the sweeps. A sweep goes over
//! the timed scenarios, each building a fresh driver, resuming the
//! scenario's checkpoint into it, reporting and writing the checkpoint
//! back, so that every idempotent call is sampled many times spread
//! over the run.
//!
//! A timing is taken per scenario (per round for step times) as the
//! fastest of its samples: the host's noise only ever adds time, so the
//! fastest of samples spread over the run is the steadiest estimate of
//! the program's own cost. The per-federation values are then reduced
//! by median, or by quantile across rounds for step times.

use std::path::Path;

use ft_fedsim::report::{report_digest, RunReport};
use ft_fedsim::Algorithm;
use ft_harness::{RunOptions, Scenario};

use crate::calib::{self, Calibrator};
use crate::stats::{fastest, median, peak_rss_mb, quantile, timed};
use crate::workloads::Workload;

/// Counts operations and failed ones. An operation is a step, a
/// report, a checkpoint, a resume, or one correctness check.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ledger {
    /// Records one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Records one operation that returns a result.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("{what} failed: {e}");
                None
            }
        }
    }
}

/// Every timing of one scenario of one timed federation, over all its
/// repeats and sweeps.
#[derive(Debug, Default)]
struct Samples {
    /// Every `Scenario::build`, one per repeat and one per sweep.
    build_ms: Vec<f64>,
    /// The run pass (the kill/resume sequence on killed workloads),
    /// one per repeat.
    run_ms: Vec<f64>,
    /// `Algorithm::report`, one per repeat and one per sweep.
    eval_ms: Vec<f64>,
    /// `checkpoint` + encode + write + rename, one in the first run and
    /// one per sweep.
    checkpoint_ms: Vec<f64>,
    /// Read + parse + `restore`, one per sweep.
    resume_ms: Vec<f64>,
    /// `Algorithm::step`, indexed by round, one per repeat.
    step_ms: Vec<Vec<f64>>,
    /// Updates delivered in each round.
    delivered: Vec<u64>,
}

impl Samples {
    /// Appends one pass's samples `s`, scaled by `factor`.
    fn absorb(&mut self, s: &Samples, factor: f64) {
        let scaled = |v: &[f64]| v.iter().map(|x| x * factor).collect::<Vec<_>>();
        self.build_ms.extend(scaled(&s.build_ms));
        self.run_ms.extend(scaled(&s.run_ms));
        self.eval_ms.extend(scaled(&s.eval_ms));
        self.checkpoint_ms.extend(scaled(&s.checkpoint_ms));
        self.resume_ms.extend(scaled(&s.resume_ms));
        if self.step_ms.is_empty() && !s.step_ms.is_empty() {
            self.step_ms = vec![Vec::new(); s.step_ms.len()];
            self.delivered.clone_from(&s.delivered);
        }
        for (all, ms) in self.step_ms.iter_mut().zip(&s.step_ms) {
            all.extend(scaled(ms));
        }
    }
}

/// What one scenario produced the first time it ran; repeats must
/// reproduce its digest.
#[derive(Debug, Default)]
struct Outcome {
    digest: Option<String>,
    accuracy: f64,
    pmacs: f64,
}

/// Everything the end-to-end run measured.
pub struct E2e {
    /// Per federation, per scenario: the first run's outcome.
    outcomes: Vec<Vec<Outcome>>,
    /// Per timed federation, per scenario: its timings, each scaled to
    /// the reference calibration by the calibrations made around it.
    samples: Vec<Vec<Samples>>,
    /// The same timings, not scaled.
    raw: Vec<Vec<Samples>>,
    calibrator: Calibrator,
    calibration_ms: Vec<f64>,
    /// `VmHWM` once the first federation has run, before any repeat.
    peak_rss_mb: Option<f64>,
    /// Operation counts, shared with the final checks.
    pub ledger: Ledger,
}

/// Checks a finished report: rounds completed equal the budget, every
/// accuracy is finite and in [0,1], `pmacs` > 0, and participants never
/// exceed the cohort.
pub fn check_report(ledger: &mut Ledger, sc: &Scenario, rounds: usize, r: &RunReport) {
    let name = &sc.name;
    ledger.check(r.rounds.len() == rounds, || {
        format!(
            "{name}: {} rounds completed, budget {rounds}",
            r.rounds.len()
        )
    });
    let in_unit = |a: f32| a.is_finite() && (0.0..=1.0).contains(&a);
    ledger.check(
        in_unit(r.final_accuracy.mean) && r.per_client_accuracy.iter().all(|&a| in_unit(a)),
        || format!("{name}: an accuracy is not finite or outside [0,1]"),
    );
    ledger.check(r.pmacs > 0.0, || format!("{name}: pmacs {} <= 0", r.pmacs));
    ledger.check(
        r.rounds
            .iter()
            .all(|round| round.participants <= sc.clients_per_round),
        || format!("{name}: participants exceed the cohort"),
    );
}

/// Writes `driver`'s checkpoint the way `run_scenario` does: the
/// harness's envelope, to a temporary file renamed into place. The
/// harness's own writer is private, so this mirrors it.
fn write_checkpoint(path: &Path, sc: &Scenario, driver: &dyn Algorithm) -> Result<(), String> {
    let envelope = serde_json::json!({
        "version": 3,
        "scenario": sc.name,
        "quick": false,
        "target_rounds": sc.rounds,
        "round": driver.round(),
        "state": driver.checkpoint(),
    });
    let json = serde_json::to_string(&envelope).map_err(|e| e.to_string())?;
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, json).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, path).map_err(|e| e.to_string())
}

/// Reads, parses and restores a checkpoint written by
/// [`write_checkpoint`].
fn resume(path: &Path, driver: &mut dyn Algorithm) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let envelope = serde_json::parse_value(&text).map_err(|e| e.to_string())?;
    let state = envelope.get("state").ok_or("checkpoint has no state")?;
    driver.restore(state).map_err(|e| e.to_string())
}

impl E2e {
    /// Runs `workload` from `seed`: every federation once, then the
    /// timed federations again until each has run
    /// `workload.repeats(seconds)` times. The `workload.sweeps(seconds)`
    /// sweeps over the timed scenarios' checkpoints are spread evenly
    /// over the run, some after each repeat. The
    /// host-speed calibration runs on `threads` threads, the count the
    /// program is pinned to.
    pub fn run(workload: Workload, seed: u64, seconds: f64, threads: usize, scratch: &Path) -> E2e {
        let replicas = workload.replica_scenarios(seed);
        let timed_feds = workload.timed_replicas();
        let repeats = workload.repeats(seconds);
        let sweeps = workload.sweeps(seconds);
        let per_timed = || -> Vec<Vec<Samples>> {
            replicas[..timed_feds]
                .iter()
                .map(|f| f.iter().map(|_| Samples::default()).collect())
                .collect()
        };
        let mut out = E2e {
            outcomes: replicas
                .iter()
                .map(|f| f.iter().map(|_| Outcome::default()).collect())
                .collect(),
            samples: per_timed(),
            raw: per_timed(),
            calibrator: Calibrator::new(threads),
            calibration_ms: Vec::new(),
            peak_rss_mb: None,
            ledger: Ledger::default(),
        };
        let prefix = format!("{}-{}", workload.name(), std::process::id());
        let killed = scratch.join(format!("{prefix}-killed.json"));
        let stored = |r: usize, i: usize| scratch.join(format!("{prefix}-r{r}-{i}.json"));
        for repeat in 0..repeats {
            let feds = if repeat == 0 {
                replicas.len()
            } else {
                timed_feds
            };
            for (r, scenarios) in replicas[..feds].iter().enumerate() {
                for (i, sc) in scenarios.iter().enumerate() {
                    out.run_one(workload, sc, (r, i), repeat == 0, (&stored(r, i), &killed));
                }
                if repeat == 0 && r == 0 {
                    out.peak_rss_mb = peak_rss_mb();
                }
            }
            for _ in sweeps * repeat / repeats..sweeps * (repeat + 1) / repeats {
                let c0 = out.calibrator.measure();
                let mut sweep = per_timed();
                for (r, scenarios) in replicas[..timed_feds].iter().enumerate() {
                    for (i, sc) in scenarios.iter().enumerate() {
                        out.sweep_one(sc, (r, i), &stored(r, i), &mut sweep[r][i]);
                    }
                }
                let c1 = out.calibrator.measure();
                out.calibration_ms.extend([c0, c1]);
                for (r, fed) in sweep.iter().enumerate() {
                    for (i, s) in fed.iter().enumerate() {
                        out.record((r, i), s, (c0, c1));
                    }
                }
            }
        }
        let _ = std::fs::remove_file(&killed);
        for (r, scenarios) in replicas[..timed_feds].iter().enumerate() {
            for i in 0..scenarios.len() {
                let _ = std::fs::remove_file(stored(r, i));
            }
        }
        eprintln!(
            "{}: {} federations, the first {timed_feds} timed over {repeats} repeats \
             and {sweeps} sweeps, {} round samples",
            workload.name(),
            replicas.len(),
            round_ms(&out.samples).len()
        );
        out
    }

    /// One run of scenario `i` of federation `r` (its first when
    /// `first`): an uninterrupted build → rounds → report pass. A timed
    /// federation's first run writes its checkpoint to `stored` for the
    /// sweeps; on killed workloads every run of a timed federation then
    /// makes the kill/resume sequence through `run_scenario`, writing
    /// its checkpoints to `killed`. The host-speed calibration is
    /// measured before and after a timed federation's run.
    fn run_one(
        &mut self,
        workload: Workload,
        sc: &Scenario,
        (r, i): (usize, usize),
        first: bool,
        (stored, killed): (&Path, &Path),
    ) {
        let timed_fed = r < workload.timed_replicas();
        let c0 = if timed_fed {
            self.calibrator.measure()
        } else {
            f64::NAN
        };
        let mut s = Samples::default();
        let Some((digest, report, driver)) = self.pass(sc, workload.rounds(), &mut s) else {
            return;
        };
        if first {
            self.outcomes[r][i] = Outcome {
                digest: Some(digest.clone()),
                accuracy: f64::from(report.final_accuracy.mean),
                pmacs: report.pmacs,
            };
        } else {
            let expected = self.outcomes[r][i].digest.clone();
            self.ledger
                .check(expected.as_deref() == Some(digest.as_str()), || {
                    format!(
                        "{}: repeat run digest {digest} differs from {expected:?}",
                        sc.name
                    )
                });
        }
        if !timed_fed {
            return;
        }
        if first {
            let (written, ms) = timed(|| write_checkpoint(stored, sc, driver.as_ref()));
            if self.ledger.op("checkpoint", written).is_some() {
                s.checkpoint_ms.push(ms);
            }
        }
        drop(driver);
        if let Some(every) = workload.kill_every() {
            let (_, ms) = timed(|| kill_resume(sc, every, &digest, &mut self.ledger, killed));
            s.run_ms = vec![ms];
        }
        let c1 = self.calibrator.measure();
        self.calibration_ms.extend([c0, c1]);
        self.record((r, i), &s, (c0, c1));
    }

    /// The uninterrupted build → rounds → report pass of `sc`; returns
    /// its digest, report and driver.
    fn pass(
        &mut self,
        sc: &Scenario,
        rounds: usize,
        s: &mut Samples,
    ) -> Option<(String, RunReport, Box<dyn Algorithm>)> {
        let ledger = &mut self.ledger;
        let (built, build_ms) = timed(|| sc.build());
        s.build_ms.push(build_ms);
        let mut run_ms = build_ms;
        let mut driver = ledger.op("build", built)?;
        for _ in 0..rounds {
            let (stepped, ms) = timed(|| driver.step());
            run_ms += ms;
            let round = ledger.op("step", stepped)?;
            s.step_ms.push(vec![ms]);
            s.delivered.push(round.participants as u64);
        }
        let (reported, ms) = timed(|| driver.report());
        run_ms += ms;
        s.run_ms.push(run_ms);
        s.eval_ms.push(ms);
        let report = ledger.op("report", reported)?;
        check_report(ledger, sc, rounds, &report);
        Some((report_digest(&report), report, driver))
    }

    /// One sweep over scenario `i` of federation `r`: the process that
    /// wrote the checkpoint at `stored` is gone, so a fresh driver is
    /// built, resumes it and must report the first run's digest; then it
    /// writes its checkpoint back to `stored`. The timings go to `s`.
    fn sweep_one(&mut self, sc: &Scenario, (r, i): (usize, usize), stored: &Path, s: &mut Samples) {
        let ledger = &mut self.ledger;
        let digest = self.outcomes[r][i].digest.as_deref();
        let (built, ms) = timed(|| sc.build());
        s.build_ms.push(ms);
        let Some(mut driver) = ledger.op("build", built) else {
            return;
        };
        let (resumed, ms) = timed(|| resume(stored, driver.as_mut()));
        s.resume_ms.push(ms);
        if ledger.op("resume", resumed).is_none() {
            return;
        }
        let (reported, ms) = timed(|| driver.report());
        s.eval_ms.push(ms);
        if let Some(report) = ledger.op("report", reported) {
            let d = report_digest(&report);
            ledger.check(Some(d.as_str()) == digest, || {
                format!(
                    "{}: resumed report digest {d} differs from {digest:?}",
                    sc.name
                )
            });
        }
        let (written, ms) = timed(|| write_checkpoint(stored, sc, driver.as_ref()));
        s.checkpoint_ms.push(ms);
        ledger.op("checkpoint", written);
    }

    /// Records the timings `s` of scenario `i` of timed federation `r`,
    /// scaled by the calibrations `(c0, c1)` made before and after them.
    fn record(&mut self, (r, i): (usize, usize), s: &Samples, (c0, c1): (f64, f64)) {
        self.samples[r][i].absorb(s, calib::REFERENCE_MS / ((c0 + c1) / 2.0));
        self.raw[r][i].absorb(s, 1.0);
    }

    /// The end-to-end metrics, by name, value and unit, with timings
    /// scaled to the reference calibration. The calibration times and
    /// the unscaled timings go to standard error.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        eprintln!(
            "calibration: median {:.4} ms, fastest {:.4} ms, reference {} ms",
            median(&self.calibration_ms),
            fastest(&self.calibration_ms),
            calib::REFERENCE_MS
        );
        let unscaled: Vec<String> = self
            .metrics_of(&self.raw)
            .iter()
            .take(TIMINGS)
            .map(|(name, value, unit)| format!("{name}={value:.6}{unit}"))
            .collect();
        eprintln!("unscaled: {}", unscaled.join(" "));
        self.metrics_of(&self.samples)
    }

    /// The metrics, the first [`TIMINGS`] of them taken from `samples`.
    fn metrics_of(&self, samples: &[Vec<Samples>]) -> Vec<(&'static str, f64, &'static str)> {
        let outcomes: Vec<&Outcome> = self.outcomes.iter().flatten().collect();
        let round_ms = round_ms(samples);
        let step_s: f64 = round_ms.iter().sum::<f64>() / 1e3;
        let delivered: u64 = samples.iter().flatten().flat_map(|s| &s.delivered).sum();
        let per_federation = |f: fn(&Samples) -> &[f64]| -> f64 {
            let sums: Vec<f64> = samples
                .iter()
                .map(|fed| fed.iter().map(|s| fastest(f(s))).sum())
                .collect();
            median(&sums)
        };
        let success = if self.ledger.attempted == 0 {
            0.0
        } else {
            1.0 - self.ledger.failed as f64 / self.ledger.attempted as f64
        };
        vec![
            ("setup_s", per_federation(|s| &s.build_ms) / 1e3, "s"),
            ("run_s", per_federation(|s| &s.run_ms) / 1e3, "s"),
            ("updates_per_s", delivered as f64 / step_s, "1/s"),
            ("round_ms_p50", quantile(&round_ms, 0.5), "ms"),
            ("round_ms_p90", quantile(&round_ms, 0.9), "ms"),
            ("eval_ms", per_federation(|s| &s.eval_ms), "ms"),
            ("checkpoint_ms", per_federation(|s| &s.checkpoint_ms), "ms"),
            ("resume_ms", per_federation(|s| &s.resume_ms), "ms"),
            ("peak_rss_mb", self.peak_rss_mb.unwrap_or(f64::NAN), "MB"),
            (
                "final_accuracy",
                outcomes.iter().map(|o| o.accuracy).sum::<f64>() / outcomes.len().max(1) as f64,
                "ratio",
            ),
            (
                "train_pmacs",
                outcomes.iter().map(|o| o.pmacs).sum::<f64>() / self.outcomes.len().max(1) as f64,
                "PMACs",
            ),
            ("success_rate", success, "ratio"),
        ]
    }
}

/// How many of the metrics, from the first, are timings.
const TIMINGS: usize = 8;

/// The fastest repeat of every round of every timed scenario.
fn round_ms(samples: &[Vec<Samples>]) -> Vec<f64> {
    samples
        .iter()
        .flatten()
        .flat_map(|s| s.step_ms.iter().map(|r| fastest(r)))
        .collect()
}

/// Runs `sc` through `run_scenario`, killed after every `every` rounds
/// and resumed from its checkpoint, and checks the final digest equals
/// the uninterrupted one.
fn kill_resume(sc: &Scenario, every: usize, expected: &str, ledger: &mut Ledger, ckpt: &Path) {
    let _ = std::fs::remove_file(ckpt);
    let mut stop = every;
    loop {
        let opts = RunOptions {
            checkpoint_path: Some(ckpt.to_path_buf()),
            stop_after: (stop < sc.rounds).then_some(stop),
            ..RunOptions::default()
        };
        let Some(outcome) = ledger.op("kill/resume run", ft_harness::run_scenario(sc, &opts))
        else {
            return;
        };
        if stop >= sc.rounds {
            ledger.check(outcome.digest.as_deref() == Some(expected), || {
                format!(
                    "{}: kill/resume digest {:?} differs from {expected}",
                    sc.name, outcome.digest
                )
            });
            return;
        }
        ledger.check(outcome.rounds_completed == stop, || {
            format!(
                "{}: killed at {} not {stop}",
                sc.name, outcome.rounds_completed
            )
        });
        stop += every;
    }
}
