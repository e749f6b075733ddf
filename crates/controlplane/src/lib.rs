//! # horse-controlplane
//!
//! The control plane of Fig. 2: **Policy Generation**, **control-plane
//! instructions** and the hooks the **Monitor** block drives.
//!
//! * [`api`] — the [`Controller`] trait (flow-in / flow-removed /
//!   port-status / stats / timer callbacks) and the [`Sink`] through
//!   which a controller emits OpenFlow messages and timer requests: an
//!   [`ApplyNow`] applies the start compile as it is emitted, an
//!   [`Outbox`] collects every later reaction.
//! * [`pathdb`] — per-topology path database (a dense `switch × host`
//!   table of next hops and ECMP sets, diffable cell by cell; k-shortest)
//!   shared by the policy modules.
//! * [`spec`] — the serde `PolicySpec`, mirroring the JSON-ish policy
//!   configuration of the paper's Fig. 2.
//! * [`validate`] — "basic policy validation of policy composition":
//!   overlap/conflict detection across compiled rules and spec-level
//!   sanity checks.
//! * [`generator`] — the [`PolicyGenerator`]: a lightweight, modular
//!   controller translating high-level policies into OpenFlow messages.
//! * [`modules`] — one module per policy of Fig. 1: MAC learning, MAC
//!   forwarding, load balancing (ECMP/weighted), application-specific
//!   peering, blackholing, source routing, rate limiting.
//!
//! ## Pipeline layout
//!
//! The generator compiles to a two-table pipeline:
//!
//! | table | contents |
//! |-------|----------|
//! | 0 | policy overrides: blackhole (prio 900), app-peering (800), source-routing (750), rate-limit (700), fall-through → table 1 (prio 1) |
//! | 1 | forwarding: MAC forwarding or load-balancing groups (prio 100), learned entries (prio 200) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod generator;
pub mod modules;
pub mod pathdb;
pub mod spec;
pub mod validate;

pub use api::{ApplyNow, Controller, ControllerCtx, Outbox, Sink};
pub use generator::PolicyGenerator;
pub use pathdb::PathDb;
pub use spec::{LbMode, PolicyRule, PolicySpec};
pub use validate::{validate_rules, validate_spec, ValidationReport};

/// Cookie namespaces identifying the policy module that owns a rule
/// (high byte of the 64-bit cookie).
pub mod cookies {
    /// Blackholing rules.
    pub const BLACKHOLE: u64 = 0x01 << 56;
    /// Application-specific peering rules.
    pub const APP_PEERING: u64 = 0x02 << 56;
    /// Source-routing rules.
    pub const SOURCE_ROUTING: u64 = 0x03 << 56;
    /// Rate-limiting rules.
    pub const RATE_LIMIT: u64 = 0x04 << 56;
    /// Forwarding rules (MAC forwarding or LB).
    pub const FORWARDING: u64 = 0x05 << 56;
    /// Reactive MAC-learning rules.
    pub const MAC_LEARNING: u64 = 0x06 << 56;
    /// Pipeline plumbing (table-0 fall-through).
    pub const PLUMBING: u64 = 0x0f << 56;

    /// The namespace (module) part of a cookie.
    pub fn namespace(cookie: u64) -> u64 {
        cookie & (0xff << 56)
    }
}

/// Priority bands of table 0 (policy table). Forwarding lives in table 1.
pub mod priorities {
    /// Blackholing beats everything.
    pub const BLACKHOLE: u16 = 900;
    /// Application-specific peering.
    pub const APP_PEERING: u16 = 800;
    /// Source routing.
    pub const SOURCE_ROUTING: u16 = 750;
    /// Rate limiting (meter + goto forwarding).
    pub const RATE_LIMIT: u16 = 700;
    /// Table-0 fall-through into the forwarding table.
    pub const FALLTHROUGH: u16 = 1;
    /// Forwarding entries (table 1).
    pub const FORWARDING: u16 = 100;
    /// Reactive learned entries (table 1, above static forwarding).
    pub const LEARNED: u16 = 200;
}
