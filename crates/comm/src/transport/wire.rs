//! The wire frame format shared by the shmem and TCP backends.
//!
//! One frame is one envelope delivery (`DATA`) or one piece of
//! failure-ledger news (`CTRL`). All integers are little-endian; the
//! element type travels by *name* — sound because every rank of a world
//! runs the same binary, so equal names imply equal layouts (and the
//! receive side re-checks size and drop-freeness before reconstructing
//! values).
//!
//! ```text
//! DATA:    0x00 | comm u64 | dst_local u32 | src u32 | tag u64 | ctx u64
//!               | count u64 | elem_size u32 | name_len u16 | name bytes
//!               | payload_len u64 | payload bytes
//! CTRL:    0x01 | code u8 (0 FAILED, 2 ABORT, 3 BYE) | arg u64
//! HANDOFF: 0x02 | comm u64 | dst_local u32 | token u64
//! ```
//!
//! `ctx` is the packed causal trace context the sender stamped on the
//! envelope (zero on untraced runs); it rides the wire so the receive
//! side of a cross-process world can record the matching flow edge.
//!
//! `HANDOFF` is the zero-copy large-message path on shmem **loopback**
//! worlds: the sender stashes the whole [`Envelope`] in a process-local
//! slab and pushes only this ~21-byte token frame through the ring, so
//! FIFO order with smaller serialized frames is preserved while the
//! payload allocation moves by pointer. The token is meaningless outside
//! the process that minted it, which is why only a shmem reader (which
//! shares the sender's slab) may claim one — [`apply`] refuses it.
//!
//! Frames are self-delimiting inside a shmem ring record; on TCP each
//! frame follows the `u32` length prefix the stream layer reserves in
//! front of it — [`encode_data_into`] appends behind that prefix, so the
//! payload is copied into its outgoing buffer exactly once. A TCP reader
//! refuses a `HANDOFF` frame before it reaches [`apply`] and ends the
//! link instead. `comm` carries the
//! collective-channel bit exactly as the mailbox key does, so decoding
//! pushes straight into the right mailbox without knowing about
//! channels.

use super::CtrlMsg;
use crate::message::Envelope;
use crate::registry::Registry;

/// A decoded frame.
#[derive(Debug)]
pub enum Frame {
    /// An envelope for mailbox `(comm, dst_local)`.
    Data {
        /// Communicator id (channel bit included).
        comm: u64,
        /// Destination rank within the communicator.
        dst_local: usize,
        /// The reconstructed envelope.
        env: Envelope,
    },
    /// Failure-ledger news.
    Ctrl(CtrlMsg),
    /// A zero-copy handoff token for mailbox `(comm, dst_local)`: the
    /// envelope itself is stashed in the sending process's slab under
    /// `token`. Only meaningful to a reader sharing that slab.
    Handoff {
        /// Communicator id (channel bit included).
        comm: u64,
        /// Destination rank within the communicator.
        dst_local: usize,
        /// Slab key the stashed envelope is claimed with.
        token: u64,
    },
}

const KIND_DATA: u8 = 0x00;
const KIND_CTRL: u8 = 0x01;
const KIND_HANDOFF: u8 = 0x02;

const CTRL_FAILED: u8 = 0;
// Code 1 is retired (it carried communicator revocations, which no
// longer exist) and decodes as an unknown code.
const CTRL_ABORT: u8 = 2;
const CTRL_BYE: u8 = 3;

/// Append one encoded envelope delivery to `out`, leaving whatever
/// `out` already holds in front of it: the TCP transport reserves its
/// length prefix there, so prefix and payload are one buffer built
/// once. Panics with a diagnostic when the payload's element type
/// cannot legally cross a process boundary (drop glue) — the same class
/// of fatal protocol error as an MPI datatype mismatch.
pub fn encode_data_into(out: &mut Vec<u8>, comm: u64, dst_local: usize, env: &Envelope) {
    let payload = env.wire_view().unwrap_or_else(|| {
        panic!(
            "payload type `{}` cannot cross a wire transport (it has drop \
             glue); send plain-data elements or use the thread backend",
            env.type_name
        )
    });
    let name = env.type_name.as_bytes();
    assert!(name.len() <= u16::MAX as usize, "absurd type name length");
    out.reserve(data_len(env));
    out.push(KIND_DATA);
    out.extend_from_slice(&comm.to_le_bytes());
    out.extend_from_slice(&(dst_local as u32).to_le_bytes());
    out.extend_from_slice(&(env.src as u32).to_le_bytes());
    out.extend_from_slice(&env.tag.to_le_bytes());
    out.extend_from_slice(&env.ctx.to_le_bytes());
    out.extend_from_slice(&(env.count as u64).to_le_bytes());
    out.extend_from_slice(&(env.elem_size as u32).to_le_bytes());
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Bytes [`encode_data_into`] appends for `env`.
pub fn data_len(env: &Envelope) -> usize {
    55 + env.type_name.len() + env.bytes
}

/// Encode an envelope delivery as a frame of its own (see
/// [`encode_data_into`]).
pub fn encode_data(comm: u64, dst_local: usize, env: &Envelope) -> Vec<u8> {
    let mut out = Vec::new();
    encode_data_into(&mut out, comm, dst_local, env);
    out
}

/// Encode a zero-copy handoff token (see the module docs).
pub fn encode_handoff(comm: u64, dst_local: usize, token: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(21);
    out.push(KIND_HANDOFF);
    out.extend_from_slice(&comm.to_le_bytes());
    out.extend_from_slice(&(dst_local as u32).to_le_bytes());
    out.extend_from_slice(&token.to_le_bytes());
    out
}

/// Encode failure-ledger news.
pub fn encode_ctrl(msg: CtrlMsg) -> Vec<u8> {
    let (code, arg) = match msg {
        CtrlMsg::Failed(rank) => (CTRL_FAILED, rank as u64),
        CtrlMsg::Abort => (CTRL_ABORT, 0),
        CtrlMsg::Bye(rank) => (CTRL_BYE, rank as u64),
    };
    let mut out = Vec::with_capacity(10);
    out.push(KIND_CTRL);
    out.push(code);
    out.extend_from_slice(&arg.to_le_bytes());
    out
}

/// Cursor-style reader over a frame buffer.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("truncated frame: wanted {n} bytes at {}", self.pos))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Decode one frame (the full buffer must be exactly one frame).
pub fn decode(buf: &[u8]) -> Result<Frame, String> {
    let mut r = Reader { buf, pos: 0 };
    match r.u8()? {
        KIND_DATA => {
            let comm = r.u64()?;
            let dst_local = r.u32()? as usize;
            let src = r.u32()? as usize;
            let tag = r.u64()?;
            let ctx = r.u64()?;
            let count = r.u64()? as usize;
            let elem_size = r.u32()? as usize;
            let name_len = r.u16()? as usize;
            let name = std::str::from_utf8(r.take(name_len)?)
                .map_err(|e| format!("bad type name: {e}"))?;
            let payload_len = r.u64()? as usize;
            if payload_len != count.saturating_mul(elem_size) {
                return Err(format!(
                    "inconsistent frame: {count} x {elem_size}B elements but {payload_len}B payload"
                ));
            }
            let payload = r.take(payload_len)?.to_vec();
            if r.pos != buf.len() {
                return Err(format!("{} trailing bytes after frame", buf.len() - r.pos));
            }
            Ok(Frame::Data {
                comm,
                dst_local,
                env: Envelope::from_wire(src, tag, count, elem_size, name, payload).with_ctx(ctx),
            })
        }
        KIND_HANDOFF => {
            let comm = r.u64()?;
            let dst_local = r.u32()? as usize;
            let token = r.u64()?;
            if r.pos != buf.len() {
                return Err(format!("{} trailing bytes after frame", buf.len() - r.pos));
            }
            Ok(Frame::Handoff {
                comm,
                dst_local,
                token,
            })
        }
        KIND_CTRL => {
            let code = r.u8()?;
            let arg = r.u64()?;
            let msg = match code {
                CTRL_FAILED => CtrlMsg::Failed(arg as usize),
                CTRL_ABORT => CtrlMsg::Abort,
                CTRL_BYE => CtrlMsg::Bye(arg as usize),
                other => return Err(format!("unknown ctrl code {other}")),
            };
            Ok(Frame::Ctrl(msg))
        }
        other => Err(format!("unknown frame kind {other:#04x}")),
    }
}

/// Apply a decoded frame to the local registry: push data into the
/// destination mailbox, or fold ctrl news into the failure ledger
/// (without re-publishing — the news came *from* the wire).
pub fn apply(frame: Frame, registry: &Registry) {
    match frame {
        Frame::Data {
            comm,
            dst_local,
            env,
        } => registry.mailbox(comm, dst_local).push(env),
        Frame::Ctrl(msg) => registry.apply_remote_ctrl(msg),
        // A handoff token references a slab in the *sending* process;
        // resolving it here would be type confusion across processes.
        // Both wire readers take these out before calling `apply`: shmem
        // claims them, TCP ends the link.
        Frame::Handoff { token, .. } => {
            panic!("handoff token {token:#x} reached a reader without the sender's slab")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_frames_roundtrip() {
        let env = Envelope::new(3, 42, vec![1u64, 2, 3]).with_ctx(0x0002_0001_0000_0009);
        let buf = encode_data(7 | (1 << 63), 5, &env);
        match decode(&buf).unwrap() {
            Frame::Data {
                comm,
                dst_local,
                env,
            } => {
                assert_eq!(comm, 7 | (1 << 63));
                assert_eq!(dst_local, 5);
                assert_eq!(env.src, 3);
                assert_eq!(env.tag, 42);
                assert_eq!(env.ctx, 0x0002_0001_0000_0009);
                assert_eq!(env.into_data::<u64>(), vec![1, 2, 3]);
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn encode_data_into_appends_behind_what_the_buffer_holds() {
        let env = Envelope::new(3, 42, vec![1u64, 2, 3]);
        let alone = encode_data(7, 5, &env);
        assert_eq!(alone.len(), data_len(&env));
        let mut out = vec![0xAA; 17];
        encode_data_into(&mut out, 7, 5, &env);
        assert_eq!(out[..17], [0xAA; 17]);
        assert_eq!(out[17..], alone[..]);
    }

    #[test]
    fn handoff_frames_roundtrip() {
        let buf = encode_handoff(5 | (1 << 63), 3, 0xDEAD_BEEF);
        assert_eq!(buf.len(), 21);
        match decode(&buf).unwrap() {
            Frame::Handoff {
                comm,
                dst_local,
                token,
            } => {
                assert_eq!(comm, 5 | (1 << 63));
                assert_eq!(dst_local, 3);
                assert_eq!(token, 0xDEAD_BEEF);
            }
            other => panic!("wrong frame: {other:?}"),
        }
        assert!(decode(&buf[..buf.len() - 1]).is_err());
    }

    #[test]
    #[should_panic(expected = "without the sender's slab")]
    fn handoff_tokens_refuse_foreign_application() {
        let registry = crate::registry::Registry::new();
        apply(
            Frame::Handoff {
                comm: 0,
                dst_local: 0,
                token: 1,
            },
            &registry,
        );
    }

    #[test]
    fn ctrl_frames_roundtrip() {
        for msg in [CtrlMsg::Failed(2), CtrlMsg::Abort, CtrlMsg::Bye(7)] {
            match decode(&encode_ctrl(msg)).unwrap() {
                Frame::Ctrl(got) => assert_eq!(got, msg),
                other => panic!("wrong frame: {other:?}"),
            }
        }
    }

    #[test]
    fn the_retired_ctrl_code_1_is_unknown() {
        let mut frame = encode_ctrl(CtrlMsg::Abort);
        frame[1] = 1;
        assert_eq!(decode(&frame).unwrap_err(), "unknown ctrl code 1");
    }

    #[test]
    fn truncated_and_inconsistent_frames_error() {
        let env = Envelope::new(0, 0, vec![1u32]);
        let buf = encode_data(0, 0, &env);
        assert!(decode(&buf[..buf.len() - 1]).is_err());
        assert!(decode(&[0x77]).is_err());
        let mut bad = buf.clone();
        // Corrupt the count field (offset 1 + 8 + 4 + 4 + 8 + 8 = 33).
        bad[33] = 99;
        assert!(decode(&bad).is_err());
    }

    #[test]
    #[should_panic(expected = "cannot cross a wire transport")]
    fn droppy_payloads_refuse_to_encode() {
        let env = Envelope::new(0, 0, vec![String::from("nope")]);
        let _ = encode_data(0, 0, &env);
    }
}
