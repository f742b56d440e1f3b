//! The four closed-loop workloads on the benchmark's own actors.

use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

use kar::{Client, Mesh, MeshConfig};
use kar_types::{ActorRef, DeploymentProfile, RequestId, RequestMessage, TimeScale, Value};

use super::Workload;
use crate::actors::{self, COUNT_FIELD};
use crate::harness::{caller_threads, closed_loop, Caller, OpOutcome, Until, Window};
use crate::rng::SplitMix64;

/// Warm actors of `echo_inmem` and `counter_ack`.
const WARM_ACTORS: usize = 64;
/// User payload of an echo call (Table 2's payload size).
const ECHO_PAYLOAD_BYTES: usize = 20;

/// `actor_churn`: key space, resident watermarks and passivation window.
const CHURN_KEYS: usize = 200_000;
const CHURN_SOFT_WATERMARK: usize = 1024;
const CHURN_HARD_WATERMARK: usize = 2048;
const CHURN_PASSIVATION_WINDOW: Duration = Duration::from_millis(150);
const CHURN_TIME_SCALE: f64 = 0.05;

/// `fanout_ack`: tree depth (2^depth leaves) and server components.
const FANOUT_DEPTH: u32 = 3;
const FANOUT_SERVERS: usize = 4;
/// A round whose arrivals take longer than this is failed, not waited for.
const FANOUT_ROUND_TIMEOUT: Duration = Duration::from_secs(30);

/// Warm-up operations per caller: a fixed amount of work, counted in
/// `setup_s`.
const ECHO_WARMUP_OPS: usize = 20_000;
const COUNTER_WARMUP_OPS: usize = 2 * WARM_ACTORS;
const CHURN_WARMUP_OPS: usize = 10_000;
const FANOUT_WARMUP_OPS: usize = 10;

/// A closed-loop workload: a mesh, one [`Caller`] per thread, and the audit
/// that reads the callers' books against the mesh at the end.
pub struct Closed<C> {
    mesh: Mesh,
    callers: Vec<C>,
    audit: fn(&Mesh, &mut [C]) -> Vec<String>,
    sample: RequestMessage,
}

impl<C: Caller> Closed<C> {
    fn warmed(mut self, ops_per_caller: usize) -> Self {
        let warmup = closed_loop(&mut self.callers, Until::OpsPerCaller(ops_per_caller));
        assert!(
            warmup.failed == 0,
            "warm-up operations failed: {:?}",
            warmup.violations
        );
        self
    }
}

impl<C: Caller> Workload for Closed<C> {
    fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    fn run(&mut self, seconds: f64) -> Window {
        closed_loop(
            &mut self.callers,
            Until::Elapsed(Duration::from_secs_f64(seconds)),
        )
    }

    fn run_one_caller(&mut self, seconds: f64) -> Window {
        closed_loop(
            &mut self.callers[..1],
            Until::Elapsed(Duration::from_secs_f64(seconds)),
        )
    }

    fn audit(&mut self) -> Vec<String> {
        (self.audit)(&self.mesh, &mut self.callers)
    }

    fn sample_request(&self) -> RequestMessage {
        self.sample.clone()
    }
}

/// A mesh with `servers` components hosting the benchmark's actors.
fn mesh_with_servers(config: MeshConfig, servers: usize) -> Mesh {
    let mesh = Mesh::new(config);
    for index in 0..servers {
        let node = mesh.add_node();
        mesh.add_component(node, &format!("server-{index}"), actors::host_all);
    }
    mesh
}

fn sample(target: ActorRef, method: &str, args: Vec<Value>) -> RequestMessage {
    RequestMessage::root(RequestId::from_raw(1), target, method, args)
}

// ---------------------------------------------------------------------
// echo_inmem
// ---------------------------------------------------------------------

pub struct EchoCaller {
    client: Client,
    targets: Vec<ActorRef>,
    next: usize,
    rng: SplitMix64,
}

impl Caller for EchoCaller {
    fn op(&mut self, op: u64) -> OpOutcome {
        let payload = self.rng.letters(ECHO_PAYLOAD_BYTES);
        let target = &self.targets[self.next % self.targets.len()];
        self.next += 1;
        let args = vec![Value::from(payload.as_str()), Value::Int(op as i64)];
        let start = Instant::now();
        let reply = self.client.call(target, "echo", args);
        let end = Instant::now();
        let violation = match reply {
            Ok(Value::Str(echoed)) if echoed == payload => None,
            other => Some(format!("echo of {payload:?} returned {other:?}")),
        };
        OpOutcome {
            start,
            end,
            violation,
        }
    }
}

pub fn echo_inmem(seed: u64) -> Closed<EchoCaller> {
    let mesh = mesh_with_servers(MeshConfig::default(), 1);
    let client = mesh.client();
    let threads = caller_threads();
    let callers = (0..threads)
        .map(|caller| EchoCaller {
            client: client.clone(),
            targets: (0..WARM_ACTORS)
                .filter(|actor| actor % threads == caller)
                .map(|actor| ActorRef::new("Echo", format!("e{actor}")))
                .collect(),
            next: 0,
            rng: SplitMix64::new(seed, caller as u64),
        })
        .collect();
    Closed {
        mesh,
        callers,
        // Every reply was compared with its payload when it arrived.
        audit: |_, _| Vec::new(),
        sample: sample(
            ActorRef::new("Echo", "e0"),
            "echo",
            vec![Value::from("x".repeat(ECHO_PAYLOAD_BYTES)), Value::Int(1)],
        ),
    }
    .warmed(ECHO_WARMUP_OPS)
}

// ---------------------------------------------------------------------
// counter_ack and actor_churn
// ---------------------------------------------------------------------

/// How a [`CounterCaller`] picks its next key among the ones it owns.
enum KeyStream {
    /// In turn: every key stays warm.
    RoundRobin { next: usize },
    /// Seeded log-uniform Zipf (s ≈ 1): a hot head and a long cold tail.
    Zipf,
}

/// Calls `Counter.bump` on keys no other caller touches, so every reply
/// must be exactly one more than the previous reply for that key.
pub struct CounterCaller {
    client: Client,
    index: usize,
    stride: usize,
    stream: KeyStream,
    rng: SplitMix64,
    /// Last acknowledged count per owned key.
    acknowledged: Vec<i64>,
}

fn counter_ref(key: usize) -> ActorRef {
    ActorRef::new("Counter", format!("k{key}"))
}

impl CounterCaller {
    /// The mesh-wide key of this caller's `slot`-th own key: callers
    /// interleave, so each owns a disjoint `1/stride` of the key space.
    fn key(&self, slot: usize) -> usize {
        slot * self.stride + self.index
    }
}

impl Caller for CounterCaller {
    fn op(&mut self, op: u64) -> OpOutcome {
        let slot = match &mut self.stream {
            KeyStream::RoundRobin { next } => {
                *next += 1;
                (*next - 1) % self.acknowledged.len()
            }
            KeyStream::Zipf => self.rng.zipf(self.acknowledged.len()),
        };
        let target = counter_ref(self.key(slot));
        let expected = self.acknowledged[slot] + 1;
        let start = Instant::now();
        let reply = self
            .client
            .call(&target, "bump", vec![Value::Int(op as i64)]);
        let end = Instant::now();
        let violation = match reply {
            Ok(Value::Int(count)) => {
                self.acknowledged[slot] = count;
                (count != expected)
                    .then(|| format!("{target} replied {count}, expected {expected}"))
            }
            other => Some(format!("{target} bump returned {other:?}")),
        };
        OpOutcome {
            start,
            end,
            violation,
        }
    }
}

/// Reads every touched counter back through the store and checks it against
/// the caller's books; the sum over all of them is then the number of
/// acknowledged calls.
fn audit_counters(mesh: &Mesh, callers: &mut [CounterCaller]) -> Vec<String> {
    let store = mesh.store();
    let mut violations = Vec::new();
    for caller in callers.iter() {
        for (slot, &acknowledged) in caller.acknowledged.iter().enumerate() {
            if acknowledged == 0 {
                continue;
            }
            let key = format!("state/{}", counter_ref(caller.key(slot)).qualified_name());
            let stored = store
                .admin_hgetall(&key)
                .get(COUNT_FIELD)
                .and_then(Value::as_i64);
            if stored != Some(acknowledged) {
                violations.push(format!(
                    "{key} holds {stored:?} but {acknowledged} bumps were acknowledged"
                ));
            }
        }
    }
    violations
}

fn counter_workload(
    mesh: Mesh,
    seed: u64,
    keys: usize,
    zipf: bool,
    warmup_ops: usize,
) -> Closed<CounterCaller> {
    let client = mesh.client();
    let threads = caller_threads();
    let callers = (0..threads)
        .map(|index| CounterCaller {
            client: client.clone(),
            index,
            stride: threads,
            stream: if zipf {
                KeyStream::Zipf
            } else {
                KeyStream::RoundRobin { next: 0 }
            },
            rng: SplitMix64::new(seed, index as u64),
            acknowledged: vec![0; keys / threads],
        })
        .collect();
    Closed {
        mesh,
        callers,
        audit: audit_counters,
        sample: sample(counter_ref(0), "bump", vec![Value::Int(1)]),
    }
    .warmed(warmup_ops)
}

pub fn counter_ack(seed: u64) -> Closed<CounterCaller> {
    let mesh = mesh_with_servers(MeshConfig::for_deployment(DeploymentProfile::ClusterDev), 1);
    counter_workload(mesh, seed, WARM_ACTORS, false, COUNTER_WARMUP_OPS)
}

pub fn actor_churn(seed: u64) -> Closed<CounterCaller> {
    // Passivation sweeps ride the heartbeat and the window is one retention
    // period, both on the compressed clock: at 5 % the 1 s heartbeat is
    // 50 ms and a 3 s retention is the 150 ms window.
    let config = MeshConfig {
        time_scale: TimeScale::new(CHURN_TIME_SCALE),
        retention: CHURN_PASSIVATION_WINDOW.div_f64(CHURN_TIME_SCALE),
        ..MeshConfig::default()
    }
    .with_resident_watermarks(CHURN_SOFT_WATERMARK, CHURN_HARD_WATERMARK);
    let mesh = mesh_with_servers(config, 1);
    counter_workload(mesh, seed, CHURN_KEYS, true, CHURN_WARMUP_OPS)
}

// ---------------------------------------------------------------------
// fanout_ack
// ---------------------------------------------------------------------

/// Calls its own tree's root and waits for all leaves to reach its sink.
pub struct FanoutCaller {
    client: Client,
    index: usize,
    arrivals: Receiver<u64>,
    /// Rounds in which every leaf was told (the root call returned).
    rounds: i64,
}

const FANOUT_LEAVES: usize = 1 << FANOUT_DEPTH;

impl FanoutCaller {
    fn round(&mut self, op: u64) -> Result<(), String> {
        let args = vec![
            Value::Int(op as i64),
            Value::Int(i64::from(FANOUT_DEPTH)),
            Value::from(self.index),
        ];
        self.client
            .call(&actors::tree_root(self.index), "scatter", args)
            .map_err(|error| format!("scatter {op} failed: {error}"))?;
        self.rounds += 1;
        for arrived in 0..FANOUT_LEAVES {
            match self.arrivals.recv_timeout(FANOUT_ROUND_TIMEOUT) {
                Ok(from) if from == op => {}
                Ok(from) => return Err(format!("round {op} received an arrival of round {from}")),
                Err(_) => return Err(format!("round {op}: {arrived} of {FANOUT_LEAVES} arrivals")),
            }
        }
        Ok(())
    }
}

impl Caller for FanoutCaller {
    fn op(&mut self, op: u64) -> OpOutcome {
        let start = Instant::now();
        let violation = self.round(op).err();
        OpOutcome {
            start,
            end: Instant::now(),
            violation,
        }
    }
}

/// No arrival beyond the eight of each round, and every leaf counted every
/// round exactly once.
fn audit_fanout(mesh: &Mesh, callers: &mut [FanoutCaller]) -> Vec<String> {
    let store = mesh.store();
    let mut violations = Vec::new();
    for caller in callers.iter() {
        if let Ok(extra) = caller.arrivals.try_recv() {
            violations.push(format!(
                "round {extra} delivered more than {FANOUT_LEAVES} arrivals"
            ));
        }
        for leaf in actors::tree_leaves(caller.index, FANOUT_DEPTH) {
            let key = format!("state/{}", leaf.qualified_name());
            let counted = store
                .admin_hgetall(&key)
                .get(COUNT_FIELD)
                .and_then(Value::as_i64);
            if counted != Some(caller.rounds) {
                violations.push(format!(
                    "leaf {leaf} counted {counted:?} of {} rounds",
                    caller.rounds
                ));
            }
        }
    }
    violations
}

/// The tree is fixed by the workload's definition: nothing in it is drawn
/// from the seed.
pub fn fanout_ack(_seed: u64) -> Closed<FanoutCaller> {
    let mesh = mesh_with_servers(
        MeshConfig::for_deployment(DeploymentProfile::ClusterDev),
        FANOUT_SERVERS,
    );
    let client = mesh.client();
    let callers = (0..caller_threads())
        .map(|index| {
            let (sender, arrivals) = channel();
            actors::register_sink(index, sender);
            FanoutCaller {
                client: client.clone(),
                index,
                arrivals,
                rounds: 0,
            }
        })
        .collect();
    Closed {
        mesh,
        callers,
        audit: audit_fanout,
        sample: sample(
            actors::tree_root(0),
            "scatter",
            vec![
                Value::Int(1),
                Value::Int(i64::from(FANOUT_DEPTH)),
                Value::Int(0),
            ],
        ),
    }
    .warmed(FANOUT_WARMUP_OPS)
}
