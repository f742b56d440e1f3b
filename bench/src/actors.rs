//! The benchmark's own actors. Each handler carries the caller's op id in
//! its arguments and, while a traced window runs, stamps a `kar.handler`
//! span around its body and child spans around every call into the runtime.

use std::sync::mpsc::Sender;
use std::sync::Mutex;

use kar::{Actor, ActorContext, ComponentBuilder, Outcome};
use kar_types::{ActorRef, KarError, KarResult, Value};

use crate::trace;

fn op_of(args: &[Value], index: usize) -> u64 {
    args.get(index).and_then(Value::as_i64).unwrap_or(0) as u64
}

fn no_method(actor: &str, method: &str) -> KarError {
    KarError::application(format!("{actor} has no method {method}"))
}

/// Stateless: `echo(payload, op)` returns `payload`.
pub struct Echo;

impl Actor for Echo {
    fn invoke(
        &mut self,
        _ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        if method != "echo" {
            return Err(no_method("Echo", method));
        }
        let op = op_of(args, 1);
        let handler = trace::begin(trace::HANDLER, op, op);
        let reply = args.first().cloned().unwrap_or(Value::Null);
        trace::end(handler);
        Ok(Outcome::value(reply))
    }
}

/// Durable read-modify-write: `bump(op)` increments the persisted `count`
/// and returns the new value, so a caller that owns the actor can demand
/// that every reply equals the previous one plus one.
pub struct Counter;

/// The state field [`Counter`] and the [`Node`] leaves count in.
pub const COUNT_FIELD: &str = "count";

fn bump(ctx: &ActorContext<'_>, handler: &Option<trace::Open>) -> KarResult<i64> {
    let previous = trace::child(trace::STATE_GET, handler, || ctx.state().get(COUNT_FIELD))?
        .and_then(|v| v.as_i64())
        .unwrap_or(0);
    trace::child(trace::STATE_SET, handler, || {
        ctx.state().set(COUNT_FIELD, Value::Int(previous + 1))
    })?;
    Ok(previous + 1)
}

impl Actor for Counter {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        if method != "bump" {
            return Err(no_method("Counter", method));
        }
        let op = op_of(args, 0);
        let handler = trace::begin(trace::HANDLER, op, op);
        let result = bump(ctx, &handler);
        trace::end(handler);
        result.map(|count| Outcome::value(Value::Int(count)))
    }
}

/// One node of a binary scatter tree: `scatter(op, depth, caller)` tells its
/// two children with `depth - 1`; at depth 0 it counts the round in durable
/// state and tells the caller's [`Sink`].
pub struct Node;

impl Actor for Node {
    fn invoke(
        &mut self,
        ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        if method != "scatter" {
            return Err(no_method("Node", method));
        }
        let op = op_of(args, 0);
        let depth = args.get(1).and_then(Value::as_i64).unwrap_or(0);
        let caller = args.get(2).cloned().unwrap_or(Value::Int(0));
        let handler = trace::begin(trace::HANDLER, op, op);
        let result = (|| {
            if depth == 0 {
                bump(ctx, &handler)?;
                let sink = sink_ref(caller.as_i64().unwrap_or(0) as usize);
                return trace::child(trace::CTX_TELL, &handler, || {
                    ctx.tell(&sink, "arrive", vec![args[0].clone(), caller.clone()])
                });
            }
            for branch in 0..2 {
                let child =
                    ActorRef::new("Node", format!("{}.{branch}", ctx.self_ref().actor_id()));
                trace::child(trace::CTX_TELL, &handler, || {
                    ctx.tell(
                        &child,
                        "scatter",
                        vec![args[0].clone(), Value::Int(depth - 1), caller.clone()],
                    )
                })?;
            }
            Ok(())
        })();
        trace::end(handler);
        result.map(|()| Outcome::value(Value::Null))
    }
}

/// The root of caller `caller`'s scatter tree.
pub fn tree_root(caller: usize) -> ActorRef {
    ActorRef::new("Node", format!("c{caller}"))
}

/// The ids of the leaves under [`tree_root`] for a tree of `depth` levels.
pub fn tree_leaves(caller: usize, depth: u32) -> Vec<ActorRef> {
    let mut level = vec![format!("c{caller}")];
    for _ in 0..depth {
        level = level
            .iter()
            .flat_map(|id| [format!("{id}.0"), format!("{id}.1")])
            .collect();
    }
    level
        .into_iter()
        .map(|id| ActorRef::new("Node", id))
        .collect()
}

pub fn sink_ref(caller: usize) -> ActorRef {
    ActorRef::new("Sink", format!("sink-{caller}"))
}

/// Where each caller's [`Sink`] delivers arrivals: an in-process channel
/// registered by the caller thread's owner before the first round.
static SINKS: Mutex<Vec<Option<Sender<u64>>>> = Mutex::new(Vec::new());

/// Routes arrivals for `caller` to `sender` (replacing an earlier route).
pub fn register_sink(caller: usize, sender: Sender<u64>) {
    let mut sinks = SINKS.lock().expect("sink registry is never poisoned");
    if sinks.len() <= caller {
        sinks.resize(caller + 1, None);
    }
    sinks[caller] = Some(sender);
}

/// `arrive(op, caller)` signals the caller's channel with the op id.
pub struct Sink;

impl Actor for Sink {
    fn invoke(
        &mut self,
        _ctx: &mut ActorContext<'_>,
        method: &str,
        args: &[Value],
    ) -> KarResult<Outcome> {
        if method != "arrive" {
            return Err(no_method("Sink", method));
        }
        let op = op_of(args, 0);
        let caller = op_of(args, 1) as usize;
        let handler = trace::begin(trace::HANDLER, op, op);
        if let Some(Some(sender)) = SINKS
            .lock()
            .expect("sink registry is never poisoned")
            .get(caller)
        {
            // A closed channel means the run is over; late arrivals are
            // counted by the audit through the leaf counters instead.
            let _ = sender.send(op);
        }
        trace::end(handler);
        Ok(Outcome::value(Value::Null))
    }
}

/// Hosts every benchmark actor type on one component.
pub fn host_all(builder: ComponentBuilder) -> ComponentBuilder {
    builder
        .host("Echo", || Box::new(Echo))
        .host("Counter", || Box::new(Counter))
        .host("Node", || Box::new(Node))
        .host("Sink", || Box::new(Sink))
}
