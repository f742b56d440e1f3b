//! Fenced client connections to the store.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use kar_types::{Completion, ComponentId, Epoch, FaultGate, FaultSite, KarResult, Value};

use crate::pipeline::Pipeline;
use crate::store::{delete_if_holds, holds, materialize_hash, StoreInner, Stored};

/// A client session bound to a component and a fencing [`Epoch`].
///
/// Every command is one store round trip: it checks that the owning
/// component has not been fenced (a fenced connection fails every operation
/// with `KarError::Fenced`), is **applied at once**, and returns when its
/// acknowledgement is due — the configured operation latency later. The
/// commands a reactor must not wait for, a state image's load
/// ([`Connection::submit_hgetall`]) and flush
/// ([`Connection::submit_hset_multi`]), hand that instant back as a
/// [`Completion`] instead; the blocking form is the same code plus the wait. The fence check's epoch-table read guard is held
/// across the command's data section, so a fence never interleaves with a
/// half-applied command. Use [`Connection::pipeline`] to batch several
/// commands into a single round trip and fence check.
///
/// Data sections lock exactly the one shard the key hashes onto, and clone
/// only inline scalars and `Arc` pointers under the lock — [`Value`] trees
/// are materialized outside it, so reading a large actor state never stalls
/// the shard.
#[derive(Debug, Clone)]
pub struct Connection {
    inner: Arc<StoreInner>,
    component: ComponentId,
    epoch: Epoch,
}

impl Connection {
    pub(crate) fn new(inner: Arc<StoreInner>, component: ComponentId, epoch: Epoch) -> Self {
        Connection {
            inner,
            component,
            epoch,
        }
    }

    /// The component this connection belongs to.
    pub fn component(&self) -> ComponentId {
        self.component
    }

    /// The fencing epoch this connection was opened at.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Starts a [`Pipeline`] on this connection: commands are buffered and
    /// applied by a single flush that pays one round-trip latency and one
    /// fence check for the whole batch, grouped per shard.
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::new_fenced(self.inner.clone(), self.component, self.epoch)
    }

    /// Consults the fault injector for this command, keyed to `key`'s shard,
    /// before anything is applied. The `is_none` short-circuit keeps the
    /// disabled path at one branch.
    fn fault_gate(&self, key: &str) -> KarResult<FaultGate> {
        if self.inner.config.faults.is_none() {
            return Ok(FaultGate::default());
        }
        self.inner
            .fault_gate(FaultSite::StoreCommand, self.inner.shard_of(key))
    }

    /// Completes a blocking command: waits out the round trip begun at
    /// `trip` and returns the computed result — unless this command's ack
    /// was chosen to be dropped.
    fn finish<T>(&self, trip: Option<Duration>, gate: FaultGate, value: T) -> KarResult<T> {
        StoreInner::complete(trip, gate, FaultSite::StoreCommand, value).wait()
    }

    /// Reads a string key.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected.
    pub fn get(&self, key: &str) -> KarResult<Option<Value>> {
        let trip = self.inner.begin_round_trip();
        let gate = self.fault_gate(key)?;
        let stored = {
            let _fence = self.inner.fence_guard(self.component, self.epoch)?;
            let data = self.inner.lock_shard_of(key);
            self.inner
                .stats
                .reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            data.strings.get(key).cloned()
        };
        self.finish(trip, gate, stored.map(Stored::into_value))
    }

    /// Writes a string key, returning the previous value.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected.
    pub fn set(&self, key: &str, value: Value) -> KarResult<Option<Value>> {
        let trip = self.inner.begin_round_trip();
        let gate = self.fault_gate(key)?;
        let value = Stored::from(value);
        let previous = {
            let _fence = self.inner.fence_guard(self.component, self.epoch)?;
            let mut data = self.inner.lock_shard_of(key);
            self.inner
                .stats
                .writes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            data.strings.insert(key.into(), value)
        };
        self.finish(trip, gate, previous.map(Stored::into_value))
    }

    /// Writes a string key only if it does not exist yet. Returns `true` if
    /// the write happened.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected.
    pub fn set_nx(&self, key: &str, value: Value) -> KarResult<bool> {
        let trip = self.inner.begin_round_trip();
        let gate = self.fault_gate(key)?;
        let value = Stored::from(value);
        let written = {
            let _fence = self.inner.fence_guard(self.component, self.epoch)?;
            let mut data = self.inner.lock_shard_of(key);
            self.inner
                .stats
                .cas
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if data.strings.contains_key(key) {
                false
            } else {
                data.strings.insert(key.into(), value);
                true
            }
        };
        self.finish(trip, gate, written)
    }

    /// Atomically replaces the value of `key` with `new` if its current value
    /// equals `expected` (where `None` means "key absent").
    ///
    /// Returns `Ok(Ok(()))` on success and `Ok(Err(actual))` with the actual
    /// current value on a lost race. This is the primitive the KAR runtime
    /// uses to coordinate actor placement (§4.1).
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected.
    pub fn compare_and_swap(
        &self,
        key: &str,
        expected: Option<&Value>,
        new: Value,
    ) -> KarResult<Result<(), Option<Value>>> {
        let trip = self.inner.begin_round_trip();
        let gate = self.fault_gate(key)?;
        let new = Stored::from(new);
        let outcome = {
            let _fence = self.inner.fence_guard(self.component, self.epoch)?;
            let mut data = self.inner.lock_shard_of(key);
            self.inner
                .stats
                .cas
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let current = data.strings.get(key);
            if holds(current, expected) {
                data.strings.insert(key.into(), new);
                Ok(())
            } else {
                Err(current.cloned())
            }
        };
        self.finish(
            trip,
            gate,
            outcome.map_err(|actual| actual.map(Stored::into_value)),
        )
    }

    /// Atomically deletes `key` if its current value equals `expected`.
    /// Returns `Ok(true)` if the delete happened; an absent key or another
    /// value is left alone (`Ok(false)`). Counted as a CAS. This is how a
    /// component releases a placement it holds without touching one a
    /// racing component has written since.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected. An injected ack loss applies the delete and reports
    /// failure anyway.
    pub fn compare_and_delete(&self, key: &str, expected: &Value) -> KarResult<bool> {
        let trip = self.inner.begin_round_trip();
        let gate = self.fault_gate(key)?;
        let deleted = {
            let _fence = self.inner.fence_guard(self.component, self.epoch)?;
            let mut data = self.inner.lock_shard_of(key);
            self.inner
                .stats
                .cas
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            delete_if_holds(&mut data, key, expected)
        };
        self.finish(trip, gate, deleted)
    }

    /// Deletes a string key, returning the previous value.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected.
    pub fn del(&self, key: &str) -> KarResult<Option<Value>> {
        let trip = self.inner.begin_round_trip();
        let gate = self.fault_gate(key)?;
        let previous = {
            let _fence = self.inner.fence_guard(self.component, self.epoch)?;
            let mut data = self.inner.lock_shard_of(key);
            self.inner
                .stats
                .writes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            data.strings.remove(key)
        };
        self.finish(trip, gate, previous.map(Stored::into_value))
    }

    /// True if the string key exists.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected.
    pub fn exists(&self, key: &str) -> KarResult<bool> {
        let trip = self.inner.begin_round_trip();
        let gate = self.fault_gate(key)?;
        let exists = {
            let _fence = self.inner.fence_guard(self.component, self.epoch)?;
            let data = self.inner.lock_shard_of(key);
            self.inner
                .stats
                .reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            data.strings.contains_key(key)
        };
        self.finish(trip, gate, exists)
    }

    /// Reads one field of a hash.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected.
    pub fn hget(&self, key: &str, field: &str) -> KarResult<Option<Value>> {
        let trip = self.inner.begin_round_trip();
        let gate = self.fault_gate(key)?;
        let stored = {
            let _fence = self.inner.fence_guard(self.component, self.epoch)?;
            let data = self.inner.lock_shard_of(key);
            self.inner
                .stats
                .reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            data.hashes.get(key).and_then(|h| h.get(field)).cloned()
        };
        self.finish(trip, gate, stored.map(Stored::into_value))
    }

    /// Writes one field of a hash, returning the previous value of the field.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected.
    pub fn hset(&self, key: &str, field: &str, value: Value) -> KarResult<Option<Value>> {
        let trip = self.inner.begin_round_trip();
        let gate = self.fault_gate(key)?;
        let value = Stored::from(value);
        let previous = {
            let _fence = self.inner.fence_guard(self.component, self.epoch)?;
            let mut data = self.inner.lock_shard_of(key);
            self.inner
                .stats
                .writes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            data.hashes
                .entry(key.into())
                .or_default()
                .insert(field.to_owned(), value)
        };
        self.finish(trip, gate, previous.map(Stored::into_value))
    }

    /// Writes several fields of a hash at once (a single command: one round
    /// trip and one write however many fields).
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected.
    pub fn hset_multi(
        &self,
        key: &str,
        entries: impl IntoIterator<Item = (String, Value)>,
    ) -> KarResult<()> {
        self.submit_hset_multi(key, entries)?.wait()
    }

    /// [`Connection::hset_multi`] without the wait: the fields are written
    /// when this returns, and the returned [`Completion`] says when the round
    /// trip's acknowledgement is due and what it carries.
    ///
    /// # Errors
    ///
    /// Fails at once — nothing written — with `KarError::Fenced` if the
    /// component has been forcefully disconnected, or with an injected
    /// transient fault. An injected ack loss applies the write; the
    /// completion carries the failure.
    pub fn submit_hset_multi(
        &self,
        key: &str,
        entries: impl IntoIterator<Item = (String, Value)>,
    ) -> KarResult<Completion<()>> {
        let trip = self.inner.begin_round_trip();
        let gate = self.fault_gate(key)?;
        let entries: Vec<(String, Stored)> = entries
            .into_iter()
            .map(|(field, value)| (field, Stored::from(value)))
            .collect();
        let _fence = self.inner.fence_guard(self.component, self.epoch)?;
        let mut data = self.inner.lock_shard_of(key);
        self.inner
            .stats
            .writes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        data.hashes.entry(key.into()).or_default().extend(entries);
        Ok(StoreInner::complete(
            trip,
            gate,
            FaultSite::StoreCommand,
            (),
        ))
    }

    /// Deletes one field of a hash, returning its previous value.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected.
    pub fn hdel(&self, key: &str, field: &str) -> KarResult<Option<Value>> {
        let trip = self.inner.begin_round_trip();
        let gate = self.fault_gate(key)?;
        let previous = {
            let _fence = self.inner.fence_guard(self.component, self.epoch)?;
            let mut data = self.inner.lock_shard_of(key);
            self.inner
                .stats
                .writes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            data.hashes.get_mut(key).and_then(|h| h.remove(field))
        };
        self.finish(trip, gate, previous.map(Stored::into_value))
    }

    /// Reads a whole hash (empty map if the key does not exist). Only field
    /// names, inline scalars and `Arc` pointers are cloned under the shard
    /// lock; the value trees are materialized after it is released.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected.
    pub fn hgetall(&self, key: &str) -> KarResult<BTreeMap<String, Value>> {
        self.submit_hgetall(key)?.wait()
    }

    /// [`Connection::hgetall`] without the wait: the hash is read when this
    /// returns, and the returned [`Completion`] says when the round trip's
    /// acknowledgement is due and carries the fields.
    ///
    /// # Errors
    ///
    /// Fails at once — nothing read — with `KarError::Fenced` if the
    /// component has been forcefully disconnected, or with an injected
    /// transient fault. An injected ack loss reads the hash; the completion
    /// carries the failure.
    pub fn submit_hgetall(&self, key: &str) -> KarResult<Completion<BTreeMap<String, Value>>> {
        let trip = self.inner.begin_round_trip();
        let gate = self.fault_gate(key)?;
        let snapshot = {
            let _fence = self.inner.fence_guard(self.component, self.epoch)?;
            let data = self.inner.lock_shard_of(key);
            self.inner
                .stats
                .reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            data.hashes.get(key).cloned()
        };
        Ok(StoreInner::complete(
            trip,
            gate,
            FaultSite::StoreCommand,
            snapshot.map(materialize_hash).unwrap_or_default(),
        ))
    }

    /// Deletes a whole hash, returning `true` if it existed.
    ///
    /// # Errors
    ///
    /// Fails with `KarError::Fenced` if the component has been forcefully
    /// disconnected.
    pub fn hclear(&self, key: &str) -> KarResult<bool> {
        let trip = self.inner.begin_round_trip();
        let gate = self.fault_gate(key)?;
        let removed = {
            let _fence = self.inner.fence_guard(self.component, self.epoch)?;
            let mut data = self.inner.lock_shard_of(key);
            self.inner
                .stats
                .writes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            data.hashes.remove(key)
        };
        self.finish(trip, gate, removed.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineResult;
    use crate::store::Store;
    use proptest::prelude::*;

    fn store_and_conn() -> (Store, Connection) {
        let store = Store::new();
        let conn = store.connect(ComponentId::from_raw(1));
        (store, conn)
    }

    #[test]
    fn string_operations_roundtrip() {
        let (_s, conn) = store_and_conn();
        assert_eq!(conn.get("k").unwrap(), None);
        assert!(!conn.exists("k").unwrap());
        assert_eq!(conn.set("k", Value::from(1)).unwrap(), None);
        assert_eq!(conn.set("k", Value::from(2)).unwrap(), Some(Value::from(1)));
        assert!(conn.exists("k").unwrap());
        assert_eq!(conn.get("k").unwrap(), Some(Value::from(2)));
        assert_eq!(conn.del("k").unwrap(), Some(Value::from(2)));
        assert_eq!(conn.del("k").unwrap(), None);
    }

    #[test]
    fn set_nx_only_writes_once() {
        let (_s, conn) = store_and_conn();
        assert!(conn.set_nx("k", Value::from(1)).unwrap());
        assert!(!conn.set_nx("k", Value::from(2)).unwrap());
        assert_eq!(conn.get("k").unwrap(), Some(Value::from(1)));
    }

    #[test]
    fn compare_and_swap_success_and_failure() {
        let (_s, conn) = store_and_conn();
        // CAS from absent succeeds.
        assert_eq!(
            conn.compare_and_swap("k", None, Value::from("a")).unwrap(),
            Ok(())
        );
        // CAS with wrong expectation reports the actual value.
        assert_eq!(
            conn.compare_and_swap("k", None, Value::from("b")).unwrap(),
            Err(Some(Value::from("a")))
        );
        // CAS with the right expectation succeeds.
        assert_eq!(
            conn.compare_and_swap("k", Some(&Value::from("a")), Value::from("b"))
                .unwrap(),
            Ok(())
        );
        assert_eq!(conn.get("k").unwrap(), Some(Value::from("b")));
    }

    #[test]
    fn compare_and_delete_deletes_only_an_exact_match() {
        let (store, conn) = store_and_conn();
        // Absent: nothing to delete, and nothing is created.
        assert!(!conn.compare_and_delete("k", &Value::from(7)).unwrap());
        assert_eq!(store.admin_get("k"), None);
        // Another value, or the same number as another kind, stays.
        conn.set("k", Value::from(7)).unwrap();
        assert!(!conn.compare_and_delete("k", &Value::from(8)).unwrap());
        assert!(!conn.compare_and_delete("k", &Value::from("7")).unwrap());
        assert_eq!(store.admin_get("k"), Some(Value::from(7)));
        // A hash of the same name is not a string key.
        conn.hset("h", "f", Value::from(7)).unwrap();
        assert!(!conn.compare_and_delete("h", &Value::from(7)).unwrap());
        assert_eq!(conn.hget("h", "f").unwrap(), Some(Value::from(7)));
        // The exact value goes, once.
        assert!(conn.compare_and_delete("k", &Value::from(7)).unwrap());
        assert_eq!(store.admin_get("k"), None);
        assert!(!conn.compare_and_delete("k", &Value::from(7)).unwrap());
    }

    #[test]
    fn a_fenced_compare_and_delete_is_refused_and_deletes_nothing() {
        let store = Store::new();
        let c = ComponentId::from_raw(3);
        let conn = store.connect(c);
        conn.set("k", Value::from(3)).unwrap();
        store.fence(c);
        assert!(conn
            .compare_and_delete("k", &Value::from(3))
            .unwrap_err()
            .is_fenced());
        let mut pipe = conn.pipeline();
        pipe.compare_and_delete("k", Value::from(3));
        assert!(pipe.flush().unwrap_err().is_fenced());
        assert_eq!(store.admin_get("k"), Some(Value::from(3)));
    }

    #[test]
    fn an_injected_ack_loss_applies_the_compare_and_delete_and_reports_failure() {
        use crate::store::StoreConfig;
        use kar_types::{FaultInjector, FaultPlan, FaultSpec};
        let plan = FaultPlan::new(9)
            .with_site(
                FaultSite::StoreCommand,
                FaultSpec::ack_lost(1.0).with_budget(1),
            )
            .with_site(
                FaultSite::StoreFlush,
                FaultSpec::ack_lost(1.0).with_budget(1),
            );
        let store = Store::with_config(StoreConfig {
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..StoreConfig::default()
        });
        store.admin_set("a", Value::from(1));
        store.admin_set("b", Value::from(1));
        let conn = store.connect(ComponentId::from_raw(1));
        let err = conn.compare_and_delete("a", &Value::from(1)).unwrap_err();
        assert!(err.is_transient(), "an ack loss classifies transient");
        assert_eq!(store.admin_get("a"), None, "the delete applied");
        let mut pipe = conn.pipeline();
        pipe.compare_and_delete("b", Value::from(1));
        assert!(pipe.flush().unwrap_err().is_transient());
        assert_eq!(store.admin_get("b"), None, "the pipelined delete applied");
        // Both budgets spent: a replay finds the key gone and says so.
        assert!(!conn.compare_and_delete("a", &Value::from(1)).unwrap());
    }

    #[test]
    fn compare_and_delete_counts_as_a_cas_direct_and_pipelined() {
        let (store, conn) = store_and_conn();
        conn.set("a", Value::from(1)).unwrap();
        conn.compare_and_delete("a", &Value::from(2)).unwrap();
        conn.compare_and_delete("a", &Value::from(1)).unwrap();
        let mut pipe = conn.pipeline();
        pipe.compare_and_delete("a", Value::from(1))
            .set("b", Value::from(1))
            .compare_and_delete("b", Value::from(1));
        assert_eq!(
            pipe.flush().unwrap(),
            vec![
                PipelineResult::Flag(false),
                PipelineResult::Value(None),
                PipelineResult::Flag(true),
            ]
        );
        let stats = store.stats();
        assert_eq!(stats.cas, 4);
        assert_eq!(stats.writes, 2);
        // Three single commands and one flush.
        assert_eq!(stats.round_trips, 4);
    }

    #[test]
    fn concurrent_cas_single_winner() {
        let store = Store::new();
        let mut handles = Vec::new();
        for i in 0..16u64 {
            let conn = store.connect(ComponentId::from_raw(i));
            handles.push(std::thread::spawn(move || {
                conn.compare_and_swap("owner", None, Value::from(i as i64))
                    .unwrap()
                    .is_ok()
            }));
        }
        let winners: usize = handles
            .into_iter()
            .map(|h| usize::from(h.join().unwrap()))
            .sum();
        assert_eq!(winners, 1);
    }

    #[test]
    fn hash_operations_roundtrip() {
        let (_s, conn) = store_and_conn();
        assert_eq!(conn.hget("h", "f").unwrap(), None);
        assert_eq!(conn.hset("h", "f", Value::from(1)).unwrap(), None);
        assert_eq!(
            conn.hset("h", "f", Value::from(2)).unwrap(),
            Some(Value::from(1))
        );
        conn.hset_multi(
            "h",
            [
                ("g".to_string(), Value::from(3)),
                ("k".to_string(), Value::from(4)),
            ],
        )
        .unwrap();
        let all = conn.hgetall("h").unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all["g"], Value::from(3));
        assert_eq!(conn.hdel("h", "g").unwrap(), Some(Value::from(3)));
        assert_eq!(conn.hdel("h", "g").unwrap(), None);
        assert!(conn.hclear("h").unwrap());
        assert!(!conn.hclear("h").unwrap());
        assert!(conn.hgetall("h").unwrap().is_empty());
    }

    #[test]
    fn connection_reports_identity() {
        let store = Store::new();
        let conn = store.connect(ComponentId::from_raw(9));
        assert_eq!(conn.component(), ComponentId::from_raw(9));
        assert_eq!(conn.epoch(), kar_types::Epoch::ZERO);
        store.fence(ComponentId::from_raw(9));
        let conn2 = store.connect(ComponentId::from_raw(9));
        assert_eq!(conn2.epoch(), kar_types::Epoch::from_raw(1));
    }

    #[test]
    fn every_operation_is_fenced() {
        let store = Store::new();
        let c = ComponentId::from_raw(3);
        let conn = store.connect(c);
        store.fence(c);
        assert!(conn.get("k").is_err());
        assert!(conn.set("k", Value::Null).is_err());
        assert!(conn.set_nx("k", Value::Null).is_err());
        assert!(conn.compare_and_swap("k", None, Value::Null).is_err());
        assert!(conn.compare_and_delete("k", &Value::Null).is_err());
        assert!(conn.del("k").is_err());
        assert!(conn.exists("k").is_err());
        assert!(conn.hget("k", "f").is_err());
        assert!(conn.hset("k", "f", Value::Null).is_err());
        assert!(conn.hset_multi("k", []).is_err());
        assert!(conn.hdel("k", "f").is_err());
        assert!(conn.hgetall("k").is_err());
        assert!(conn.hclear("k").is_err());
    }

    #[test]
    fn stats_count_reads_writes_cas() {
        let (store, conn) = store_and_conn();
        conn.set("a", Value::from(1)).unwrap();
        conn.get("a").unwrap();
        conn.set_nx("b", Value::from(1)).unwrap();
        conn.compare_and_swap("c", None, Value::from(1))
            .unwrap()
            .unwrap();
        let stats = store.stats();
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.cas, 2);
        assert_eq!(stats.total(), 4);
        assert_eq!(stats.round_trips, 4);
    }

    proptest! {
        /// Sequential set/get on distinct keys behaves like a HashMap.
        #[test]
        fn acts_like_a_map(ops in prop::collection::vec(("[a-c]", -100i64..100), 1..40)) {
            let (_s, conn) = store_and_conn();
            let mut model = std::collections::HashMap::new();
            for (k, v) in ops {
                conn.set(&k, Value::from(v)).unwrap();
                model.insert(k.clone(), v);
                prop_assert_eq!(conn.get(&k).unwrap(), Some(Value::from(*model.get(&k).unwrap())));
            }
            for (k, v) in &model {
                prop_assert_eq!(conn.get(k).unwrap(), Some(Value::from(*v)));
            }
        }

        /// A hash behaves like a BTreeMap (`None` = no hash at all) under
        /// every hash command, direct and pipelined: replacing a field
        /// returns its previous value, deleting a missing field returns
        /// nothing, and deleting the last field leaves an empty hash.
        #[test]
        fn hash_acts_like_a_map(ops in prop::collection::vec(
            (0u8..10, "[a-e]", -5i64..5, prop::collection::vec(("[a-e]", -5i64..5), 0..4)),
            1..60,
        )) {
            let (_s, conn) = store_and_conn();
            let mut model: Option<BTreeMap<String, Value>> = None;
            for (kind, f, v, many) in ops {
                let entries: Vec<(String, Value)> =
                    many.into_iter().map(|(f, v)| (f, Value::from(v))).collect();
                match kind {
                    0 => {
                        let previous = conn.hset("h", &f, Value::from(v)).unwrap();
                        prop_assert_eq!(
                            previous,
                            model.get_or_insert_with(BTreeMap::new).insert(f, Value::from(v))
                        );
                    }
                    1 => {
                        let previous = conn.hdel("h", &f).unwrap();
                        prop_assert_eq!(previous, model.as_mut().and_then(|m| m.remove(&f)));
                    }
                    2 => {
                        conn.hset_multi("h", entries.clone()).unwrap();
                        model.get_or_insert_with(BTreeMap::new).extend(entries);
                    }
                    3 => prop_assert_eq!(conn.hclear("h").unwrap(), model.take().is_some()),
                    4 => {
                        let mut pipe = conn.pipeline();
                        pipe.hset("h", &f, Value::from(v)).hget("h", &f).hdel("h", &f).hget("h", &f);
                        let results = pipe.flush().unwrap();
                        let previous = model.get_or_insert_with(BTreeMap::new).remove(&f);
                        prop_assert_eq!(&results[0], &PipelineResult::Value(previous));
                        prop_assert_eq!(&results[1], &PipelineResult::Value(Some(Value::from(v))));
                        prop_assert_eq!(&results[2], &PipelineResult::Value(Some(Value::from(v))));
                        prop_assert_eq!(&results[3], &PipelineResult::Value(None));
                    }
                    5 => {
                        let mut pipe = conn.pipeline();
                        pipe.hset_multi("h", entries.clone()).hgetall("h");
                        let results = pipe.flush().unwrap();
                        let hash = model.get_or_insert_with(BTreeMap::new);
                        hash.extend(entries);
                        prop_assert_eq!(&results[1], &PipelineResult::Hash(hash.clone()));
                    }
                    6 => {
                        let mut pipe = conn.pipeline();
                        pipe.hclear("h").hgetall("h");
                        let results = pipe.flush().unwrap();
                        prop_assert_eq!(&results[0], &PipelineResult::Flag(model.take().is_some()));
                        prop_assert_eq!(&results[1], &PipelineResult::Hash(BTreeMap::new()));
                    }
                    7 => {
                        let mut pipe = conn.pipeline();
                        pipe.hdel("h", &f);
                        let previous = model.as_mut().and_then(|m| m.remove(&f));
                        prop_assert_eq!(pipe.flush().unwrap(), vec![PipelineResult::Value(previous)]);
                    }
                    _ => {
                        let expected = model.as_ref().and_then(|m| m.get(&f)).cloned();
                        prop_assert_eq!(conn.hget("h", &f).unwrap(), expected);
                    }
                }
                prop_assert_eq!(conn.hgetall("h").unwrap(), model.clone().unwrap_or_default());
            }
            // The hash exists exactly when the model says so — an emptied
            // hash included.
            prop_assert_eq!(conn.hclear("h").unwrap(), model.is_some());
        }
    }
}
