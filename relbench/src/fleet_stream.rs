//! `fleet_stream`: a monitoring pipeline streaming usage traces into a
//! 10k-service fleet.
//!
//! Set-up generates the fleet (a fixed topology; the run's seed drives the
//! traffic), registers every trace-driven service
//! with one `FleetRefresh` driver, feeds each service's `StreamingEstimator`
//! its coverage traces plus a few random sessions, and applies the
//! bootstrap drain. Each timed round then sends zipf-weighted sessions to
//! [`ROUND_TOUCHED`] services (`observe_all`), drains the touched
//! estimators (`drain_deltas`) and applies the deltas
//! (`FleetRefresh::apply`). After the bootstrap, the first round and the
//! last round, every registered service's usage parameters and failure
//! probability are checked bitwise against a full batch re-estimate plus a
//! re-solve over the shared plan cache.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use archrel_bench::scenarios::{generate_fleet, Fleet, FleetService, FleetSpec};
use archrel_core::{CacheStats, EvalOptions, Evaluator, FleetRefresh, SolverPolicy};
use archrel_expr::Bindings;
use archrel_markov::Dtmc;
use archrel_model::ServiceId;
use archrel_profile::streaming::StreamingEstimator;
use archrel_profile::trace::sample_trace;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::report::{Outcome, Reconciliation};
use crate::stats::{count_ratio, median};
use crate::{err, Config};

const SERVICES: usize = 10_000;
/// Seed of the fleet's topology. It is fixed, so that runs on different
/// `--seed`s time the same fleet; the run's seed drives the bootstrap
/// sessions and all traffic.
const FLEET_SEED: u64 = 42;
const BOOTSTRAP_WALKS: usize = 8;
/// Services receiving traffic per round, and sessions per touched service
/// per round: the round that `exp_streaming_fleet` records for this fleet
/// (`results/streaming_fleet.md`).
const ROUND_TOUCHED: usize = 64;
const ROUND_WALKS: usize = 20;
/// Longest session sampled; the fleet's usage chains end long before.
const MAX_TRACE: usize = 4096;
const SETUP_REPEATS: usize = 3;
const MIN_ROUNDS: usize = 20;

/// Rank of a trace-alphabet state: `s{i}` ranks `i`, `end` ranks last.
fn state_rank(state: &str) -> usize {
    if state == "end" {
        usize::MAX
    } else {
        state[1..].parse().unwrap_or(usize::MAX)
    }
}

fn successors<'c>(chain: &'c Dtmc<String>, from: &String) -> Vec<(&'c String, f64)> {
    chain.successors(from).unwrap_or_default()
}

/// One `start → … → end` trace through the edge `from → to`: advance to
/// `from` without overshooting it, take the edge, then leave by the
/// furthest-forward successor.
fn coverage_trace(chain: &Dtmc<String>, from: &str, to: &str) -> Vec<String> {
    let mut trace = vec!["start".to_string()];
    let target = state_rank(from);
    while trace.last().map(String::as_str) != Some(from) && trace.len() < 4096 {
        let next = successors(chain, trace.last().expect("non-empty"))
            .into_iter()
            .map(|(s, _)| s)
            .filter(|s| state_rank(s) <= target)
            .max_by_key(|s| state_rank(s))
            .cloned()
            .unwrap_or_else(|| from.to_string());
        trace.push(next);
    }
    trace.push(to.to_string());
    while trace.last().map(String::as_str) != Some("end") && trace.len() < 4096 {
        let next = successors(chain, trace.last().expect("non-empty"))
            .into_iter()
            .map(|(s, _)| s)
            .max_by_key(|s| state_rank(s))
            .cloned()
            .unwrap_or_else(|| "end".to_string());
        trace.push(next);
    }
    trace
}

/// `count` random sessions on the service's ground-truth usage chain.
fn sessions(
    chain: &Dtmc<String>,
    count: usize,
    rng: &mut StdRng,
) -> Result<Vec<Vec<String>>, String> {
    let start = "start".to_string();
    (0..count)
        .map(|_| sample_trace(chain, &start, MAX_TRACE, rng).map_err(err))
        .collect()
}

/// One service's estimator and the map from observed edges to the usage
/// parameters the fleet assembly binds them to.
struct Stream {
    service: ServiceId,
    estimator: StreamingEstimator<String>,
    edge_params: HashMap<(String, String), String>,
}

impl Stream {
    fn new(svc: &FleetService) -> Stream {
        Stream {
            service: svc.service.as_str().into(),
            estimator: StreamingEstimator::new(),
            edge_params: svc
                .edges
                .iter()
                .map(|e| ((e.from.clone(), e.to.clone()), e.param.clone()))
                .collect(),
        }
    }

    /// Drains the changed rows into `(param, value)` deltas.
    fn drain_into(&mut self, out: &mut Vec<(String, f64)>) {
        for row in &self.estimator.drain_deltas(0.0).rows {
            for (to, p) in &row.edges {
                if let Some(param) = self.edge_params.get(&(row.from.clone(), to.clone())) {
                    out.push((param.clone(), *p));
                }
            }
        }
    }

    /// The batch re-estimate of this service's usage parameters.
    fn batch_env(&self, svc: &FleetService) -> Result<Bindings, String> {
        let dtmc = self.estimator.estimate().map_err(err)?;
        let mut env = Bindings::new();
        for e in &svc.edges {
            let p = dtmc
                .transition_probability(&e.from, &e.to)
                .map_err(|e| format!("{}: {e}", svc.service))?;
            env.insert(&e.param, p);
        }
        Ok(env)
    }
}

fn registered(fleet: &Fleet) -> impl Iterator<Item = &FleetService> {
    fleet.services.iter().filter(|s| !s.edges.is_empty())
}

fn options() -> EvalOptions {
    EvalOptions {
        solver: SolverPolicy::Compiled,
        ..EvalOptions::default()
    }
}

/// Registration plus bootstrap: every service's estimator gets coverage
/// traces and random sessions, and one drain moves the whole fleet from
/// its ground-truth usage to the estimated one.
fn bootstrap<'f>(
    fleet: &'f Fleet,
    rng: &mut StdRng,
) -> Result<(FleetRefresh<'f>, Vec<Stream>), String> {
    let mut refresh = FleetRefresh::new(&fleet.assembly, options());
    for svc in registered(fleet) {
        let varied: Vec<String> = svc.edges.iter().map(|e| e.param.clone()).collect();
        refresh
            .register(svc.service.as_str().into(), svc.ground_env.clone(), &varied)
            .map_err(err)?;
    }
    let mut streams: Vec<Stream> = registered(fleet).map(Stream::new).collect();
    for (stream, svc) in streams.iter_mut().zip(registered(fleet)) {
        let mut traces: Vec<Vec<String>> = svc
            .edges
            .iter()
            .map(|e| coverage_trace(&svc.chain, &e.from, &e.to))
            .collect();
        traces.extend(sessions(&svc.chain, BOOTSTRAP_WALKS, rng)?);
        stream.estimator.observe_all(&traces);
    }
    let mut deltas = Vec::new();
    for stream in &mut streams {
        stream.drain_into(&mut deltas);
    }
    refresh.apply(&deltas).map_err(err)?;
    Ok((refresh, streams))
}

/// Checks every registered service against the full re-estimate plus
/// re-solve reference over the shared plan cache.
fn verify(
    fleet: &Fleet,
    streams: &[Stream],
    refresh: &FleetRefresh<'_>,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let evaluator = Evaluator::with_plan_cache(
        &fleet.assembly,
        refresh.evaluator().options(),
        Arc::clone(refresh.plan_cache()),
    );
    for (stream, svc) in streams.iter().zip(registered(fleet)) {
        let env = stream.batch_env(svc)?;
        let want = evaluator
            .failure_probability(&stream.service, &env)
            .map_err(err)?
            .value();
        let got_env = refresh
            .env(&stream.service)
            .ok_or("service not registered")?;
        let params_match = svc.edges.iter().all(|e| {
            got_env.get(&e.param).map(f64::to_bits) == env.get(&e.param).map(f64::to_bits)
        });
        let got = refresh
            .failure(&stream.service)
            .ok_or("service not registered")?
            .value();
        outcome.check(params_match && got.to_bits() == want.to_bits());
    }
    Ok(())
}

/// Timings of one round, in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct Round {
    traces: usize,
    observe: f64,
    drain: f64,
    apply: f64,
    wall: f64,
    refreshed: usize,
    fallback: usize,
}

impl Round {
    fn refresh(&self) -> f64 {
        self.drain + self.apply
    }
}

struct Traffic {
    cumulative: Vec<f64>,
    rng: StdRng,
}

impl Traffic {
    fn new(fleet: &Fleet, seed: u64) -> Traffic {
        let cumulative = registered(fleet)
            .scan(0.0, |acc, svc| {
                *acc += svc.weight;
                Some(*acc)
            })
            .collect();
        Traffic {
            cumulative,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// `ROUND_TOUCHED` distinct zipf-weighted services.
    fn touched(&mut self) -> Vec<usize> {
        let total = *self.cumulative.last().expect("non-empty fleet");
        let mut touched: Vec<usize> = Vec::with_capacity(ROUND_TOUCHED);
        while touched.len() < ROUND_TOUCHED.min(self.cumulative.len()) {
            let u = self.rng.gen::<f64>() * total;
            let i = self
                .cumulative
                .partition_point(|&c| c <= u)
                .min(self.cumulative.len() - 1);
            if !touched.contains(&i) {
                touched.push(i);
            }
        }
        touched
    }
}

/// One traffic round; `traced` times drain and apply apart.
fn round(
    services: &[&FleetService],
    streams: &mut [Stream],
    refresh: &mut FleetRefresh<'_>,
    traffic: &mut Traffic,
    traced: bool,
) -> Result<Round, String> {
    let started = Instant::now();
    let mut r = Round::default();
    let touched = traffic.touched();
    for &i in &touched {
        let traces = sessions(&services[i].chain, ROUND_WALKS, &mut traffic.rng)?;
        let t = Instant::now();
        streams[i].estimator.observe_all(&traces);
        r.observe += t.elapsed().as_secs_f64();
        r.traces += traces.len();
    }
    let t = Instant::now();
    let mut deltas = Vec::new();
    for &i in &touched {
        streams[i].drain_into(&mut deltas);
    }
    if traced {
        r.drain = t.elapsed().as_secs_f64();
    }
    let a = Instant::now();
    let stats = refresh.apply(&deltas).map_err(err)?;
    if traced {
        r.apply = a.elapsed().as_secs_f64();
    } else {
        r.drain = t.elapsed().as_secs_f64();
    }
    r.refreshed = stats.services_refreshed;
    r.fallback = stats.fallback_solves;
    r.wall = started.elapsed().as_secs_f64();
    Ok(r)
}

/// The fleet under measurement: its refresh driver, one estimator per
/// registered service, and the traffic generator.
struct Live<'f> {
    fleet: &'f Fleet,
    refresh: FleetRefresh<'f>,
    streams: Vec<Stream>,
    traffic: Traffic,
}

/// Runs rounds for `window` (at least [`MIN_ROUNDS`]).
fn rounds(
    live: &mut Live<'_>,
    window: Duration,
    traced: bool,
    outcome: &mut Outcome,
) -> Result<Vec<Round>, String> {
    let services: Vec<&FleetService> = registered(live.fleet).collect();
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_ROUNDS || started.elapsed() < window {
        let r = round(
            &services,
            &mut live.streams,
            &mut live.refresh,
            &mut live.traffic,
            traced,
        )?;
        outcome.attempted += 1;
        out.push(r);
        if out.len() == 1 && !traced {
            verify(live.fleet, &live.streams, &live.refresh, outcome)?;
        }
    }
    Ok(out)
}

/// Median over rounds of each round's ingestion rate.
fn traces_per_s(rounds: &[Round]) -> f64 {
    median(
        &rounds
            .iter()
            .map(|r| r.traces as f64 / r.observe)
            .collect::<Vec<_>>(),
    )
}

/// Runs the workload.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let spec = FleetSpec::web_scale(SERVICES, FLEET_SEED);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        let started = Instant::now();
        let fleet = generate_fleet(&spec).map_err(err)?;
        let kept = bootstrap(&fleet, &mut StdRng::seed_from_u64(config.seed))?;
        setups.push(started.elapsed().as_secs_f64());
        drop(kept);
    }
    let started = Instant::now();
    let fleet = generate_fleet(&spec).map_err(err)?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let (refresh, streams) = bootstrap(&fleet, &mut rng)?;
    setups.push(started.elapsed().as_secs_f64());
    outcome.e2e.setup_s = median(&setups);
    verify(&fleet, &streams, &refresh, &mut outcome)?;

    let mut live = Live {
        fleet: &fleet,
        refresh,
        streams,
        traffic: Traffic::new(&fleet, rng.next_u64()),
    };
    let half = if config.trace {
        config.window / 2
    } else {
        config.window
    };
    let plain = rounds(&mut live, half, false, &mut outcome)?;
    // The plan cache is shared with the bootstrap and with `verify`, so the
    // traced rounds' plan counters are the difference across them.
    let plans_before = live.refresh.plan_cache().stats();
    let traced = if config.trace {
        rounds(&mut live, half, true, &mut outcome)?
    } else {
        Vec::new()
    };
    let plans_after = live.refresh.plan_cache().stats();
    verify(&fleet, &live.streams, &live.refresh, &mut outcome)?;
    let refresh = live.refresh;

    let refresh_ms: Vec<f64> = plain.iter().map(|r| 1e3 * r.refresh()).collect();
    outcome.e2e.throughput_per_s = traces_per_s(&plain);
    outcome.e2e.latency_p50_ms = median(&refresh_ms);
    outcome.named("rounds", plain.len() as f64, "count");
    outcome.named("services_registered", refresh.len() as f64, "count");
    outcome.named("refresh_round_p50_ms", median(&refresh_ms), "ms");
    outcome.named("traces_per_s", traces_per_s(&plain), "1/s");

    if config.trace {
        let n = traced.len() as f64;
        let observe: f64 = traced.iter().map(|r| r.observe).sum();
        let traces: usize = traced.iter().map(|r| r.traces).sum();
        outcome.layer(
            "profile.streaming.observe_ns_per_trace",
            1e9 * observe / traces as f64,
        );
        outcome.layer(
            "profile.streaming.drain_us",
            1e6 * median(&traced.iter().map(|r| r.drain).collect::<Vec<_>>()),
        );
        outcome.layer(
            "core.refresh.apply_us",
            1e6 * median(&traced.iter().map(|r| r.apply).collect::<Vec<_>>()),
        );
        outcome.layer(
            "core.refresh.services_refreshed",
            traced.iter().map(|r| r.refreshed).sum::<usize>() as f64 / n,
        );
        outcome.layer(
            "core.refresh.fallback_solves",
            traced.iter().map(|r| r.fallback).sum::<usize>() as f64 / n,
        );
        let delta = |f: fn(&CacheStats) -> u64| f(&plans_after) - f(&plans_before);
        let rank1 = delta(|c| c.rank1_solves);
        let hits = delta(|c| c.plan_hits);
        outcome.layer(
            "core.plan_cache.rank1_share",
            count_ratio(rank1, rank1 + delta(|c| c.full_solves)),
        );
        outcome.layer(
            "core.plan_cache.hit_ratio",
            count_ratio(hits, hits + delta(|c| c.plan_misses)),
        );
        let mean = |f: fn(&Round) -> f64| 1e3 * traced.iter().map(f).sum::<f64>() / n;
        let reconciliation = Reconciliation {
            label: "traffic round (mean)".into(),
            total: mean(|r| r.wall),
            layers: vec![
                ("profile.streaming.observe", mean(|r| r.observe)),
                ("profile.streaming.drain", mean(|r| r.drain)),
                ("core.refresh.apply", mean(|r| r.apply)),
            ],
            unit: "ms",
        };
        outcome.layer("reconcile.residual_share", reconciliation.residual_share());
        outcome.reconciliation = Some(reconciliation);
        let traced_ms: Vec<f64> = traced.iter().map(|r| 1e3 * r.refresh()).collect();
        outcome.layer(
            "trace.overhead_share",
            median(&traced_ms) / median(&refresh_ms) - 1.0,
        );
    }
    Ok(outcome)
}
