//! The three benchmark workloads, each derived entirely from one seed.
//!
//! Every dataset, device-trace and run seed is mixed out of the
//! workload seed, so the same `--seed` always builds the same inputs.

use ft_data::DatasetConfig;
use ft_fedsim::trainer::LocalTrainConfig;
use ft_fedsim::{AvailabilityConfig, Corruption, FaultConfig, RobustAggregation};
use ft_harness::{AlgorithmSpec, AttackSpec, DeviceSpec, Scenario, TimingSpec};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's five-method comparison on openimage-like conv
    /// populations.
    PaperSuite,
    /// FedAvg over the sparse one-million-device population.
    MillionDevices,
    /// FedAvg behind a robust sink under byzantines, stragglers,
    /// dropout and churn, killed and resumed from checkpoints.
    FaultyFleet,
}

/// All workloads, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 3] = [
    Workload::PaperSuite,
    Workload::MillionDevices,
    Workload::FaultyFleet,
];

/// SplitMix64 finalizer over `seed + salt`: independent sub-seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `--seconds` value the repeat counts are sized for.
pub const REFERENCE_SECONDS: f64 = 30.0;
/// The fewest repeats of a timed federation, and the fewest sweeps, so
/// that each timing is the fastest of at least this many samples.
pub const MIN_REPEATS: usize = 2;

const FEDAVG: AlgorithmSpec = AlgorithmSpec::FedAvg {
    yogi_lr: None,
    prox_mu: None,
};

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::MillionDevices => "million-devices",
            Workload::FaultyFleet => "faulty-fleet",
        }
    }

    /// Rounds each scenario runs.
    pub fn rounds(self) -> usize {
        match self {
            Workload::PaperSuite => 12,
            Workload::MillionDevices => 30,
            // The canned byzantine-trimmed-mean full budget, at which
            // its accuracy has collapsed towards chance.
            Workload::FaultyFleet => 48,
        }
    }

    /// Every how many rounds the kill/resume sequence checkpoints and
    /// restarts, for workloads that exercise it.
    pub fn kill_every(self) -> Option<usize> {
        match self {
            Workload::FaultyFleet => Some(12),
            _ => None,
        }
    }

    /// How many of the [`replicas`](Self::replicas), from the first,
    /// are timed: they run every repeat, the rest only the first.
    pub fn timed_replicas(self) -> usize {
        match self {
            Workload::PaperSuite => 5,
            Workload::MillionDevices => 6,
            Workload::FaultyFleet => 32,
        }
    }

    /// How many times each timed federation runs when the run is given
    /// `seconds`: the count sized to take about
    /// [`REFERENCE_SECONDS`] on a 2-vCPU Xeon host, scaled by
    /// `seconds`, and never fewer than [`MIN_REPEATS`]. The wall clock
    /// never decides it.
    pub fn repeats(self, seconds: f64) -> usize {
        let at_reference = match self {
            Workload::PaperSuite => 2,
            Workload::MillionDevices => 8,
            Workload::FaultyFleet => 4,
        };
        ((at_reference as f64 * seconds / REFERENCE_SECONDS).round() as usize).max(MIN_REPEATS)
    }

    /// How many sweeps over the timed scenarios' checkpoints are spread
    /// over the repeats when the run is given `seconds`: the count sized
    /// to take about a quarter of [`REFERENCE_SECONDS`] on a 2-vCPU Xeon
    /// host, scaled by `seconds`, and never fewer than [`MIN_REPEATS`].
    /// Each sweep samples every idempotent call of every timed scenario
    /// once.
    pub fn sweeps(self, seconds: f64) -> usize {
        let at_reference = match self {
            Workload::PaperSuite => 10,
            Workload::MillionDevices => 8,
            Workload::FaultyFleet => 20,
        };
        ((at_reference as f64 * seconds / REFERENCE_SECONDS).round() as usize).max(MIN_REPEATS)
    }

    /// Independent federations of the workload's shape. One
    /// federation's accuracy depends strongly on its population, so the
    /// workloads whose outcome varies most across seeds average over
    /// more of them.
    pub fn replicas(self) -> usize {
        match self {
            Workload::PaperSuite => 5,
            Workload::MillionDevices => 6,
            Workload::FaultyFleet => 96,
        }
    }

    /// The workload's federations built from `seed`: each replica is
    /// the list of scenarios one federation runs, from its own
    /// sub-seed.
    pub fn replica_scenarios(self, seed: u64) -> Vec<Vec<Scenario>> {
        (0..self.replicas() as u64)
            .map(|r| {
                let sub = mix(seed, 1000 + r);
                let mut list = match self {
                    Workload::PaperSuite => paper_suite(sub),
                    Workload::MillionDevices => vec![million_devices(sub)],
                    Workload::FaultyFleet => vec![faulty_fleet(sub)],
                };
                for s in &mut list {
                    s.name = format!("{}-r{r}", s.name);
                }
                list
            })
            .collect()
    }
}

fn scenario(name: &str, seed: u64, dataset: DatasetConfig, rounds: usize) -> Scenario {
    Scenario {
        name: name.to_owned(),
        description: format!("flbench {name} workload"),
        dataset: dataset.with_seed(mix(seed, 1)),
        devices: DeviceSpec {
            seed: mix(seed, 2),
            ..DeviceSpec::default()
        },
        algorithm: FEDAVG,
        faults: FaultConfig::default(),
        clients_per_round: 10,
        rounds,
        quick_rounds: rounds,
        eval_every: 0,
        local: LocalTrainConfig::default(),
        timing: TimingSpec::default(),
        sparse: false,
        eval_clients: None,
        attack: None,
        availability: None,
        drift: None,
        seed: mix(seed, 3),
    }
}

fn paper_suite(seed: u64) -> Vec<Scenario> {
    let methods = [
        (
            "fedtrans",
            AlgorithmSpec::FedTrans {
                max_models: 3,
                transform_cooldown: 6,
                gamma: 3,
                delta: 3,
                beta: 0.02,
            },
        ),
        ("fedavg", FEDAVG),
        ("heterofl", AlgorithmSpec::HeteroFl),
        ("splitmix", AlgorithmSpec::SplitMix { bases: 4 }),
        ("fluid", AlgorithmSpec::Fluid),
    ];
    methods
        .into_iter()
        .map(|(method, algorithm)| {
            let dataset = DatasetConfig::openimage_like()
                .with_num_clients(300)
                .with_mean_samples(20);
            let mut s = scenario(
                &format!("paper-suite-{method}"),
                seed,
                dataset,
                Workload::PaperSuite.rounds(),
            );
            s.algorithm = algorithm;
            s.devices.base_capacity_macs = 20_000;
            s.local.local_steps = 10;
            s
        })
        .collect()
}

/// The canned `large-population-1m` shape: the dense device trace that
/// `Scenario::build` ships, on-demand shards, evaluation capped.
fn million_devices(seed: u64) -> Scenario {
    let dataset = DatasetConfig::femnist_like()
        .with_num_clients(1_000_000)
        .with_mean_samples(20);
    let mut s = scenario(
        "million-devices",
        seed,
        dataset,
        Workload::MillionDevices.rounds(),
    );
    s.sparse = true;
    s.eval_clients = Some(200);
    s.clients_per_round = 24;
    s.local.local_steps = 4;
    s
}

/// The canned `byzantine-trimmed-mean` fleet plus stragglers under a
/// short heartbeat interval, dropout, and diurnal churn with
/// departures. The slowdown stays at 100×: at 200× and above the round
/// tail depends on how many straggler rounds a seed draws, more than
/// the timed fleets of one run can average out.
fn faulty_fleet(seed: u64) -> Scenario {
    let dataset = DatasetConfig::femnist_like()
        .with_num_clients(24)
        .with_mean_samples(25);
    let mut s = scenario(
        "faulty-fleet",
        seed,
        dataset,
        Workload::FaultyFleet.rounds(),
    );
    s.clients_per_round = 6;
    s.local.local_steps = 6;
    s.attack = Some(AttackSpec {
        byzantine_prob: 0.3,
        corruption: Corruption::SignFlip,
        flip_labels: true,
        robust: RobustAggregation::TrimmedMean { trim: 0.3 },
    });
    s.faults.dropout_prob = 0.1;
    s.faults.straggler_prob = 0.25;
    s.faults.straggler_slowdown = 100.0;
    s.timing.heartbeat_interval_s = 1.0;
    s.availability = Some(AvailabilityConfig {
        trace: vec![0.95, 0.7, 0.4, 0.7],
        departure_prob: 0.15,
    });
    s
}
