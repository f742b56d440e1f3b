//! A Kafka-like in-process reliable message broker.
//!
//! The KAR runtime delegates four responsibilities to Apache Kafka (§4.1–4.2
//! of the paper): durable per-component message queues, consumer-group
//! membership with heartbeat-based failure detection, a consensus/rebalance
//! step after membership changes, and fencing of removed members ("once Kafka
//! removes a runtime process from the consumer group … it is also prevented
//! from sending more messages"). This crate provides exactly those mechanisms
//! as an in-process substrate:
//!
//! * [`Broker`] — topics split into append-only partitions with offsets,
//!   bulk expiry of the oldest records (time- and size-based retention, plus
//!   an owner-chosen low watermark: [`Producer::trim_before`] /
//!   [`Broker::log_start`], Kafka's `deleteRecords` / `beginningOffsets`), a
//!   per-topic partition-assignment table ([`PartitionSet`]s hashed by actor
//!   key), and administrative reads used by reconciliation,
//! * [`Producer`] / [`Consumer`] — fenced clients bound to a component and an
//!   epoch; fenced clients fail with `KarError::Fenced`. Consumers are also
//!   fenced per *partition* ownership epoch, so a slow consumer cannot
//!   double-commit after its partition is reassigned,
//! * consumer groups ([`GroupEvent`], [`GroupView`]) with heartbeats, session
//!   timeouts, a stabilization (consensus) delay, monotonically increasing
//!   generations, and an event stream the runtime uses to drive recovery,
//! * configurable latency injection to emulate the deployments of Table 2.
//!
//! The broker is generic over the message type `M`, so the runtime stores its
//! [`Envelope`](kar_types::Envelope)s directly without a serialization layer.
//! Reads are zero-copy: polls, re-deliveries and administrative catalog scans
//! return records whose payloads are `Arc`-shared with the partition log
//! ([`Record::into_payload`] extracts an owned payload when needed).
//!
//! # Example
//!
//! ```
//! use kar_queue::{Broker, BrokerConfig};
//! use kar_types::ComponentId;
//!
//! let broker: Broker<String> = Broker::new(BrokerConfig::default());
//! broker.create_topic("app", 2)?;
//! let producer = broker.producer(ComponentId::from_raw(1));
//! producer.send("app", 0, "hello".to_owned())?;
//!
//! let consumer = broker.consumer(ComponentId::from_raw(2), "app", 0)?;
//! let records = consumer.poll(10)?;
//! assert_eq!(records.len(), 1);
//! assert_eq!(*records[0].payload, "hello");
//! # Ok::<(), kar_types::KarError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broker;
mod config;
mod group;
mod log;
mod partition_set;
mod record;

pub use broker::{Broker, Consumer, Producer, RoundRanges};
pub use config::BrokerConfig;
pub use group::{GroupEvent, GroupView, MemberInfo, MemberState};
pub use partition_set::{key_hash, PartitionSet};
pub use record::{Record, TopicPartition};
