//! `design_batch`: an architect's design-time analyses, in process, on one
//! worker with the `compiled` solver.
//!
//! One round runs five steps, each timed on its own:
//!
//! 1. one-shot `predict` from DSL source on the 1024-state chain (parse,
//!    fresh caches, compile, evaluate), once with no artifact store and once
//!    against a read-only store populated at set-up;
//! 2. a 1024-point `BatchEvaluator` sweep of `work` over the shared DAG;
//! 3. a sweep over the recursive mesh with plain fixed points;
//! 4. `uncertainty::propagate_with_plan_cache`: 1024 samples on the chain;
//! 5. `binding_sensitivities` over the 341-parameter chain.
//!
//! Rounds repeat until the measuring window is spent and every step reports
//! its median. Every answer is then checked bitwise against the reference
//! evaluator (program off, and the sparse solver for the staged drivers).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use archrel_bench::scenarios::{
    parameterized_flow_assembly, recursive_mesh_assembly, shared_dag_assembly,
    synthetic_flow_assembly, SyntheticTopology,
};
use archrel_core::improvement::Lever;
use archrel_core::sensitivity::binding_sensitivities_with_workers;
use archrel_core::uncertainty::{propagate_with_plan_cache, FactorDistribution, UncertainQuantity};
use archrel_core::{
    augmented_chain, AssemblyProgram, AugmentedState, BatchEvaluator, CacheStats, CycleMode,
    EvalOptions, Evaluator, FixedPointMode, PlanCache, ProgramMode, Query, SolverPolicy,
};
use archrel_dsl::{parse_assembly, print_assembly};
use archrel_expr::Bindings;
use archrel_markov::{SolvePlan, LANE};
use archrel_model::{Assembly, Probability, ServiceId, StateId};
use archrel_store::{ArtifactMode, ArtifactStore};

use crate::mix::Rng;
use crate::report::{Outcome, Reconciliation};
use crate::stats::{count_ratio, median, ratio};
use crate::{err, Config};

const CHAIN_STATES: usize = 1024;
const SENS_PARAMS: usize = 341;
const DAG_POINTS: usize = 1024;
const MESH_POINTS: usize = 64;
const SAMPLES: usize = 1024;
const ONESHOTS: usize = 4;
const SETUP_REPEATS: usize = 7;
const MIN_ROUNDS: usize = 3;
/// Repeats of each stand-alone compile/load timing in a traced run.
const TIMING_REPEATS: usize = 9;

/// Every input of one run, built from the seed.
struct Scenario {
    chain_source: String,
    chain: Assembly,
    sens: Assembly,
    sens_env: Bindings,
    dag: Assembly,
    dag_work: Vec<f64>,
    mesh: Assembly,
    mesh_work: Vec<f64>,
    unc_seed: u64,
    store: Arc<ArtifactStore>,
    plan_fingerprint: u64,
}

fn options() -> EvalOptions {
    EvalOptions {
        solver: SolverPolicy::Compiled,
        plan_lanes: LANE,
        ..EvalOptions::default()
    }
}

fn mesh_options(program: ProgramMode) -> EvalOptions {
    EvalOptions {
        program,
        fixed_point: FixedPointMode::Plain,
        cycle_mode: CycleMode::FixedPoint {
            max_iterations: 200,
            tolerance: 1e-10,
        },
        ..options()
    }
}

fn reference(options: EvalOptions) -> EvalOptions {
    EvalOptions {
        program: ProgramMode::Off,
        ..options
    }
}

fn app() -> ServiceId {
    "app".into()
}

/// The chain's flow as its augmented chain with every state failing at
/// `step_pfail`: the structure a compiled plan is built for.
pub(crate) fn augmented(chain: &Assembly, step_pfail: f64) -> Result<SolvePlan, String> {
    let composite = chain
        .service(&app())
        .and_then(|s| s.as_composite())
        .ok_or("chain has no composite `app`")?;
    let failure = Probability::new(step_pfail).map_err(err)?;
    let failures = composite
        .flow()
        .states()
        .iter()
        .map(|s| (s.id.clone(), failure))
        .collect();
    let dtmc = augmented_chain(composite, &Bindings::new(), &failures).map_err(err)?;
    SolvePlan::compile(
        &dtmc,
        &AugmentedState::Flow(StateId::Start),
        &AugmentedState::Flow(StateId::End),
    )
    .map_err(err)
}

/// Scenario generation plus artifact-store population: the set-up a
/// design-time session pays before its first analysis.
fn setup(config: &Config, dir: &Path) -> Result<Scenario, String> {
    let mut rng = Rng::new(config.seed);
    let step_pfail = 1e-5 * (1.0 + rng.unit());
    let chain =
        synthetic_flow_assembly(SyntheticTopology::Chain, CHAIN_STATES, step_pfail).map_err(err)?;
    let chain_source = print_assembly(&chain).map_err(err)?;
    let (sens, base_env) =
        parameterized_flow_assembly(CHAIN_STATES, SENS_PARAMS, 1e-5).map_err(err)?;
    let mut sens_env = Bindings::new();
    for (name, _) in base_env.iter() {
        sens_env.insert(name, rng.range(1.0, 2.0));
    }
    let offset = rng.unit();
    let grid = |points: usize| -> Vec<f64> {
        (0..points)
            .map(|k| 1e3 + (1e6 - 1e3) * (k as f64 + offset) / points as f64)
            .collect()
    };

    let _ = std::fs::remove_dir_all(dir);
    let writer = Arc::new(ArtifactStore::open(dir, ArtifactMode::ReadWrite).map_err(err)?);
    let plans = Arc::new(PlanCache::new().with_artifact_store(Some(writer.clone())));
    let parsed = parse_assembly(&chain_source).map_err(err)?;
    Evaluator::with_plan_cache(&parsed, options(), plans)
        .failure_probability(&app(), &Bindings::new())
        .map_err(err)?;
    let plan = augmented(&parsed, step_pfail)?;
    writer.store_plan(&plan).map_err(err)?;
    let store = ArtifactStore::open_read_only(dir).ok_or("artifact store vanished")?;

    Ok(Scenario {
        chain_source,
        chain,
        sens,
        sens_env,
        dag: shared_dag_assembly(6, 3, 2).map_err(err)?,
        dag_work: grid(DAG_POINTS),
        mesh: recursive_mesh_assembly(4, 3, 2, 0.7).map_err(err)?,
        mesh_work: grid(MESH_POINTS),
        unc_seed: rng.next_u64(),
        store,
        plan_fingerprint: plan.fingerprint(),
    })
}

/// Answers of one round, compared bitwise against the reference.
#[derive(Debug, Clone, PartialEq)]
struct Answers {
    oneshot: Vec<u64>,
    dag: u64,
    mesh: u64,
    uncertainty: u64,
    sensitivity: Vec<u64>,
}

/// Step times of one round, in seconds, plus the counters a traced round
/// reads.
#[derive(Debug, Clone, Default)]
struct Times {
    oneshot: Vec<f64>,
    oneshot_store: Vec<f64>,
    dag: f64,
    mesh: f64,
    uncertainty: f64,
    sensitivity: f64,
    parse: Vec<f64>,
    dag_stats: CacheStats,
    mesh_stats: CacheStats,
    unc_stats: CacheStats,
    sens_stats: CacheStats,
    oneshot_stats: CacheStats,
}

impl Times {
    fn analysis(&self) -> f64 {
        self.dag + self.mesh + self.uncertainty + self.sensitivity
    }

    fn total(&self) -> f64 {
        self.oneshot.iter().sum::<f64>() + self.oneshot_store.iter().sum::<f64>() + self.analysis()
    }
}

fn oneshot(
    s: &Scenario,
    store: Option<&Arc<ArtifactStore>>,
    traced: bool,
    times: &mut Times,
) -> Result<u64, String> {
    let started = Instant::now();
    let assembly = parse_assembly(&s.chain_source).map_err(err)?;
    if traced {
        times.parse.push(started.elapsed().as_secs_f64());
    }
    let plans = Arc::new(PlanCache::new().with_artifact_store(store.cloned()));
    let evaluator = Evaluator::with_plan_cache(&assembly, options(), plans);
    let p = evaluator
        .failure_probability(&app(), &Bindings::new())
        .map_err(err)?;
    let elapsed = started.elapsed().as_secs_f64();
    if traced {
        times.oneshot_stats.merge(&evaluator.cache_stats());
    }
    if store.is_some() {
        times.oneshot_store.push(elapsed);
    } else {
        times.oneshot.push(elapsed);
    }
    Ok(p.value().to_bits())
}

fn work_queries(points: &[f64]) -> Vec<Query> {
    points
        .iter()
        .map(|&w| Query::new(app(), Bindings::new().with("work", w)))
        .collect()
}

fn dag_sweep(s: &Scenario, options: EvalOptions) -> Result<(f64, CacheStats), String> {
    let evaluator = Evaluator::with_options(&s.dag, options);
    evaluator.declare_varied(&app(), &["work".to_string()]);
    let batch = BatchEvaluator::from_evaluator(evaluator).with_workers(1);
    let mut sum = 0.0;
    for p in batch.evaluate_all(&work_queries(&s.dag_work)) {
        sum += p.map_err(err)?.value();
    }
    Ok((sum, batch.cache_stats()))
}

fn mesh_sweep(s: &Scenario, options: EvalOptions) -> Result<(f64, CacheStats), String> {
    let evaluator = Evaluator::with_options(&s.mesh, options);
    evaluator.declare_varied(&app(), &["work".to_string()]);
    let mut sum = 0.0;
    for &w in &s.mesh_work {
        sum += evaluator
            .failure_probability(&app(), &Bindings::new().with("work", w))
            .map_err(err)?
            .value();
    }
    Ok((sum, evaluator.cache_stats()))
}

fn uncertainty(s: &Scenario, options: EvalOptions) -> Result<(f64, CacheStats), String> {
    let quantities = [UncertainQuantity {
        lever: Lever::ServiceFailure("unit".into()),
        distribution: FactorDistribution::Uniform {
            low: 0.5,
            high: 2.0,
        },
    }];
    let plans = Arc::new(PlanCache::new());
    let summary = propagate_with_plan_cache(
        &s.chain,
        &app(),
        &Bindings::new(),
        &quantities,
        SAMPLES,
        s.unc_seed,
        1,
        options,
        &plans,
    )
    .map_err(err)?;
    Ok((summary.mean, plans.stats()))
}

fn sensitivity(s: &Scenario, options: EvalOptions) -> Result<(Vec<u64>, CacheStats), String> {
    let plans = Arc::new(PlanCache::new());
    let evaluator = Evaluator::with_plan_cache(&s.sens, options, Arc::clone(&plans));
    let rows =
        binding_sensitivities_with_workers(&evaluator, &app(), &s.sens_env, 1).map_err(err)?;
    Ok((
        rows.iter().map(|r| r.derivative.to_bits()).collect(),
        plans.stats(),
    ))
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

fn round(s: &Scenario, traced: bool) -> Result<(Times, Answers), String> {
    let mut times = Times::default();
    let mut answers = Answers {
        oneshot: Vec::new(),
        dag: 0,
        mesh: 0,
        uncertainty: 0,
        sensitivity: Vec::new(),
    };
    for _ in 0..ONESHOTS {
        answers.oneshot.push(oneshot(s, None, traced, &mut times)?);
        answers
            .oneshot
            .push(oneshot(s, Some(&s.store), traced, &mut times)?);
    }
    let (t, out) = timed(|| dag_sweep(s, options()));
    let (sum, stats) = out?;
    (times.dag, answers.dag, times.dag_stats) = (t, sum.to_bits(), stats);
    let (t, out) = timed(|| mesh_sweep(s, mesh_options(ProgramMode::Auto)));
    let (sum, stats) = out?;
    (times.mesh, answers.mesh, times.mesh_stats) = (t, sum.to_bits(), stats);
    let (t, out) = timed(|| uncertainty(s, options()));
    let (mean, stats) = out?;
    (times.uncertainty, answers.uncertainty, times.unc_stats) = (t, mean.to_bits(), stats);
    let (t, out) = timed(|| sensitivity(s, options()));
    let (bits, stats) = out?;
    (times.sensitivity, answers.sensitivity, times.sens_stats) = (t, bits, stats);
    Ok((times, answers))
}

/// The reference answers: program off everywhere, and the sparse solver for
/// the staged uncertainty and sensitivity drivers. The two halves run on two
/// threads; this is outside every timed region.
fn reference_answers(s: &Scenario) -> Result<Answers, String> {
    let sweeps = || -> Result<(u64, u64, u64), String> {
        let assembly = parse_assembly(&s.chain_source).map_err(err)?;
        let oneshot = Evaluator::with_options(&assembly, reference(options()))
            .failure_probability(&app(), &Bindings::new())
            .map_err(err)?
            .value();
        let mut dag = 0.0;
        let evaluator = Evaluator::with_options(&s.dag, reference(options()));
        for &w in &s.dag_work {
            dag += evaluator
                .failure_probability(&app(), &Bindings::new().with("work", w))
                .map_err(err)?
                .value();
        }
        let (mesh, _) = mesh_sweep(s, mesh_options(ProgramMode::Off))?;
        Ok((oneshot.to_bits(), dag.to_bits(), mesh.to_bits()))
    };
    let staged = || -> Result<(u64, Vec<u64>), String> {
        let sparse = EvalOptions {
            solver: SolverPolicy::Sparse,
            ..reference(options())
        };
        let (unc, _) = uncertainty(s, sparse)?;
        let (sens, _) = sensitivity(s, sparse)?;
        Ok((unc.to_bits(), sens))
    };
    let (swept, staged) = std::thread::scope(|scope| {
        let other = scope.spawn(staged);
        (sweeps(), other.join().expect("reference thread panicked"))
    });
    let ((oneshot, dag, mesh), (uncertainty, sensitivity)) = (swept?, staged?);
    Ok(Answers {
        oneshot: vec![oneshot; 2 * ONESHOTS],
        dag,
        mesh,
        uncertainty,
        sensitivity,
    })
}

/// Rounds until `window` is spent (at least [`MIN_ROUNDS`]).
fn rounds(
    s: &Scenario,
    window: Duration,
    traced: bool,
    outcome: &mut Outcome,
) -> Result<(Vec<Times>, Vec<Answers>), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut answers = Vec::new();
    while times.len() < MIN_ROUNDS || started.elapsed() < window {
        let (t, a) = round(s, traced)?;
        // Each step execution is one operation.
        outcome.attempted += (2 * ONESHOTS + 4) as u64;
        times.push(t);
        answers.push(a);
    }
    Ok((times, answers))
}

fn med(times: &[Times], f: impl Fn(&Times) -> f64) -> f64 {
    median(&times.iter().map(f).collect::<Vec<_>>())
}

fn flat(times: &[Times], f: impl Fn(&Times) -> &Vec<f64>) -> Vec<f64> {
    times.iter().flat_map(|t| f(t).iter().copied()).collect()
}

/// Median of `TIMING_REPEATS` timings of `f`, in seconds.
pub(crate) fn median_time<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(TIMING_REPEATS);
    for _ in 0..TIMING_REPEATS {
        let started = Instant::now();
        std::hint::black_box(f()?);
        samples.push(started.elapsed().as_secs_f64());
    }
    Ok(median(&samples))
}

/// Per-layer metrics of a traced run.
fn layers(
    s: &Scenario,
    times: &[Times],
    untraced: &[Times],
    outcome: &mut Outcome,
) -> Result<(), String> {
    let parse = median(&flat(times, |t| &t.parse));
    outcome.layer("dsl.parse_ms", 1e3 * parse);
    outcome.layer(
        "core.program.compile_us",
        1e6 * median_time(|| AssemblyProgram::compile(&s.dag, &app()).map_err(err))?,
    );
    let parsed = parse_assembly(&s.chain_source).map_err(err)?;
    outcome.layer(
        "markov.plan.compile_us",
        1e6 * median_time(|| augmented(&parsed, 1e-5))?,
    );
    outcome.layer(
        "store.load_plan_us",
        1e6 * median_time(|| {
            s.store
                .load_plan(s.plan_fingerprint)
                .ok_or_else(|| "archived plan missing".to_string())
        })?,
    );

    let mut all = CacheStats::default();
    let (mut dag, mut mesh, mut staged) = (
        CacheStats::default(),
        CacheStats::default(),
        CacheStats::default(),
    );
    let mut sens = CacheStats::default();
    let (mut sens_wall, mut staged_points) = (0.0, 0u64);
    for t in times {
        dag.merge(&t.dag_stats);
        mesh.merge(&t.mesh_stats);
        staged.merge(&t.unc_stats);
        staged.merge(&t.sens_stats);
        sens.merge(&t.sens_stats);
        sens_wall += t.sensitivity;
        staged_points += (SAMPLES + 3 * SENS_PARAMS) as u64;
        for stats in [
            &t.oneshot_stats,
            &t.dag_stats,
            &t.mesh_stats,
            &t.unc_stats,
            &t.sens_stats,
        ] {
            all.merge(stats);
        }
    }
    let rounds = times.len() as u64;
    outcome.layer(
        "core.plan_cache.hit_ratio",
        count_ratio(all.plan_hits, all.plan_hits + all.plan_misses),
    );
    outcome.layer(
        "core.plan_cache.rank1_share",
        count_ratio(all.rank1_solves, all.rank1_solves + all.full_solves),
    );
    outcome.layer(
        "core.program.memo_hit_ratio",
        count_ratio(dag.memo_hits, dag.memo_hits + dag.memo_misses),
    );
    outcome.layer("core.program.pin_hits", count_ratio(dag.pin_hits, rounds));
    outcome.layer(
        "core.fixedpoint.sweeps_per_point",
        count_ratio(mesh.fixed_point_sweeps, rounds * MESH_POINTS as u64),
    );
    outcome.layer(
        "core.staged.stage_ns_per_point",
        count_ratio(staged.stage_nanos, staged_points),
    );
    outcome.layer(
        "markov.plan.replay_ns_per_point",
        count_ratio(staged.replay_nanos, staged_points),
    );
    outcome.layer(
        "markov.plan.block_occupancy",
        count_ratio(staged.block_points, LANE as u64 * staged.block_flushes),
    );
    outcome.layer(
        "core.staged.unattributed_share",
        1.0 - ratio(
            (sens.stage_nanos + sens.replay_nanos) as f64,
            1e9 * sens_wall,
        ),
    );

    // Reconciliation over one median round: step wall time against the
    // layer time the counters attribute inside it.
    let per_round = |nanos: u64| 1e3 * nanos as f64 / 1e9 / times.len() as f64;
    let parse_total: f64 = flat(times, |t| &t.parse).iter().sum::<f64>() / times.len() as f64;
    let reconciliation = Reconciliation {
        label: "design round".into(),
        total: 1e3 * times.iter().map(Times::total).sum::<f64>() / times.len() as f64,
        layers: vec![
            ("dsl.parse", 1e3 * parse_total),
            ("core.solve", per_round(all.solve_nanos)),
            ("core.staged.stage", per_round(all.stage_nanos)),
            ("markov.plan.replay", per_round(all.replay_nanos)),
        ],
        unit: "ms",
    };
    outcome.layer("reconcile.residual_share", reconciliation.residual_share());
    outcome.reconciliation = Some(reconciliation);
    let traced_round = med(times, Times::total);
    let untraced_round = med(untraced, Times::total);
    outcome.layer("trace.overhead_share", traced_round / untraced_round - 1.0);
    Ok(())
}

/// Runs the workload.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut scenario = None;
    for k in 0..SETUP_REPEATS {
        let dir = config.workdir.join(format!("store{k}"));
        let started = Instant::now();
        let s = setup(config, &dir)?;
        setups.push(started.elapsed().as_secs_f64());
        scenario = Some(s);
    }
    let s = scenario.expect("at least one set-up");
    outcome.e2e.setup_s = median(&setups);

    let (untraced, answers) = if config.trace {
        let (untraced, mut answers) = rounds(&s, config.window / 2, false, &mut outcome)?;
        let (traced, more) = rounds(&s, config.window / 2, true, &mut outcome)?;
        answers.extend(more);
        layers(&s, &traced, &untraced, &mut outcome)?;
        (untraced, answers)
    } else {
        rounds(&s, config.window, false, &mut outcome)?
    };

    // Correctness, outside the timed region.
    let want = reference_answers(&s)?;
    for got in &answers {
        for (g, w) in got.oneshot.iter().zip(&want.oneshot) {
            outcome.check(g == w);
        }
        outcome.check(got.dag == want.dag);
        outcome.check(got.mesh == want.mesh);
        outcome.check(got.uncertainty == want.uncertainty);
        outcome.check(got.sensitivity == want.sensitivity);
    }

    let times = &untraced;
    let oneshot = median(&flat(times, |t| &t.oneshot));
    let oneshot_store = median(&flat(times, |t| &t.oneshot_store));
    let (dag, mesh) = (med(times, |t| t.dag), med(times, |t| t.mesh));
    let (unc, sens) = (med(times, |t| t.uncertainty), med(times, |t| t.sensitivity));
    let points = (DAG_POINTS + MESH_POINTS + SAMPLES + 3 * SENS_PARAMS) as f64;
    outcome.e2e.throughput_per_s = points / (dag + mesh + unc + sens);
    outcome.e2e.latency_p50_ms = 1e3 * oneshot;
    outcome.named("rounds", times.len() as f64, "count");
    outcome.named("oneshot_predict_ms", 1e3 * oneshot, "ms");
    outcome.named("oneshot_predict_store_ms", 1e3 * oneshot_store, "ms");
    outcome.named("dag_sweep_points_per_s", DAG_POINTS as f64 / dag, "1/s");
    outcome.named("mesh_sweep_points_per_s", MESH_POINTS as f64 / mesh, "1/s");
    outcome.named("uncertainty_samples_per_s", SAMPLES as f64 / unc, "1/s");
    outcome.named(
        "sensitivity_probes_per_s",
        (3 * SENS_PARAMS) as f64 / sens,
        "1/s",
    );
    Ok(outcome)
}
