//! The in-process thread backend: the classic Beatnik path.
//!
//! Ranks are threads sharing one [`Registry`], so delivery is a single
//! mailbox push — the envelope's payload buffer moves by pointer from
//! the sending thread to the receiving one. There is no wire, no
//! serialization, and no control plane: the failure ledger itself is
//! shared state.

use super::{CtrlMsg, Route, Transport, TransportKind};
use crate::message::Envelope;
use crate::registry::Registry;

/// Zero-cost transport for thread-per-rank worlds.
pub struct ThreadTransport;

impl Transport for ThreadTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Thread
    }

    fn deliver(&self, registry: &Registry, route: Route, env: Envelope) {
        registry.mailbox(route.comm, route.dst_local).push(env);
    }

    fn publish_ctrl(&self, _ctrl: CtrlMsg) {
        // Every rank shares the ledger; there is nobody to tell.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn delivers_straight_into_the_destination_mailbox() {
        let registry = Arc::new(Registry::new());
        let t = ThreadTransport;
        t.deliver(
            &registry,
            Route {
                comm: 0,
                dst_local: 1,
                src_world: 0,
                dst_world: 1,
            },
            Envelope::new(0, 7, vec![1u32, 2, 3]),
        );
        let mb = registry.mailbox(0, 1);
        let env = mb
            .recv_matching_timeout(0, 7, mb.interrupt_seq(), std::time::Duration::from_secs(1))
            .expect("envelope should be waiting");
        assert_eq!(env.into_data::<u32>(), vec![1, 2, 3]);
    }
}
