//! `types::snap` through `Simulation::checkpoint` / `resume`: taken on the
//! traced run's own simulation at its half-way stop, so the snapshot holds
//! the workload's real mid-run state. Should move `run_s` on
//! `ixp_whatif_fork`.

use super::Reading;
use crate::spans::Spans;
use horse::prelude::*;

#[cfg(test)]
pub const METRICS: &[&str] = &[
    "types.snap_encode_s",
    "types.snap_decode_s",
    "types.snap_bytes",
];

/// Largest snapshot the pass decodes again. The k=16 fabric's is 477 MB
/// and takes 5-15 s to resume — a quarter of the driver's per-run budget
/// for a number that predicts nothing on that workload.
const DECODE_LIMIT: usize = 128 << 20;

/// Checkpoints `sim` (read-only) and resumes the bytes into a second
/// simulation that is dropped again.
pub fn measure(sim: &Simulation, spans: &mut Spans) -> Vec<Reading> {
    let (bytes, encode_s) = spans.time("checkpoint", || sim.checkpoint());
    let decode = if bytes.len() > DECODE_LIMIT {
        Err(format!(
            "snapshot of {} MB is over the {} MB this pass decodes",
            bytes.len() >> 20,
            DECODE_LIMIT >> 20
        ))
    } else {
        let (resumed, decode_s) = spans.time("resume", || Simulation::resume(&bytes));
        resumed.map(|_| decode_s).map_err(|e| e.to_string())
    };
    vec![
        ("types.snap_encode_s", Ok(encode_s)),
        ("types.snap_decode_s", decode),
        ("types.snap_bytes", Ok(bytes.len() as f64)),
    ]
}
