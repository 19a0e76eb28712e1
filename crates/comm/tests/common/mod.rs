//! Helpers shared by the fault-injection test suites.

use beatnik_comm::{CollectiveFailed, CommError, Communicator, ANY_SOURCE, ANY_TAG};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Run one call of the panicking collective API and hand back the
/// failure it raised as a `CommError`, the way recovery drivers read it:
/// the [`CollectiveFailed`] payload a peer death or revocation throws,
/// or a `Timeout` for the "deadlock" panic a receive deadline raises
/// (that message does not carry the pending source and tag, so they read
/// as wildcards). Any other panic is a bug and keeps unwinding.
pub fn caught<R>(comm: &Communicator, call: impl FnOnce() -> R) -> Result<R, CommError> {
    catch_unwind(AssertUnwindSafe(call)).map_err(|p| {
        if let Some(failed) = p.downcast_ref::<CollectiveFailed>() {
            return failed.error.clone();
        }
        match p.downcast_ref::<String>() {
            Some(m) if m.contains(" deadlock on rank ") => CommError::Timeout {
                rank: comm.rank(),
                src: ANY_SOURCE,
                tag: ANY_TAG,
            },
            _ => resume_unwind(p),
        }
    })
}
