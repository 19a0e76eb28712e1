//! Message envelopes moved between rank mailboxes.
//!
//! A message payload takes one of three forms:
//!
//! * **Owned** — a `Vec<T>` boxed as `dyn Any`, so the mailbox can be
//!   type-agnostic while transfers stay zero-copy (the vector's heap
//!   buffer moves between threads untouched). Every send of a buffer
//!   the caller gives up ([`crate::Communicator::send`],
//!   [`crate::Communicator::isend_owned`], the collectives) builds one
//!   directly; a borrowed-slice send ([`crate::Communicator::isend`])
//!   copies the slice once into an owned `Vec` and then travels the
//!   same way.
//! * **Shared** — an `Arc<Vec<T>>` cloned per destination, for the
//!   multi-destination sends of one buffer that broadcast fans out
//!   ([`crate::Communicator::broadcast`]). The sender never copies
//!   payload bytes; the *last* receiver to claim the
//!   buffer takes the allocation itself (`Arc::try_unwrap`), earlier
//!   ones clone.
//! * **Raw** — bytes reconstructed from a wire frame by a shmem or TCP
//!   reader.
//!
//! The envelope carries the metadata MPI would put on the wire: source
//! rank, tag, and the payload size in bytes (used by the instrumentation
//! layer).

use crate::error::CommError;
use std::any::Any;
use std::sync::Arc;

/// Marker trait for element types that can travel in a message.
///
/// Blanket-implemented for every `Send + 'static` type; the bound exists so
/// signatures read as intent ("this is message data") and so a future
/// serializing transport could narrow it.
pub trait CommData: Send + 'static {}
impl<T: Send + 'static> CommData for T {}

/// The three payload forms.
enum Payload {
    /// An owned `Vec<T>` moved by pointer.
    Typed(Box<dyn Any + Send>),
    /// An `Arc<Vec<T>>` shared with the sender and/or other envelopes of
    /// the same buffer. `take` is the monomorphized claim function
    /// captured at construction: unwrap the allocation when this is the
    /// last reference, clone otherwise.
    Shared {
        arc: Arc<dyn Any + Send + Sync>,
        take: fn(Arc<dyn Any + Send + Sync>) -> Box<dyn Any + Send>,
    },
    /// Raw bytes reconstructed from a wire frame (shmem/TCP backends).
    /// Type identity is the envelope's `type_name` — sound across
    /// processes because every rank runs the same binary, and the
    /// sender only produces a wire view for plain-data types (no drop
    /// glue; see [`Envelope::wire_view`]).
    Raw(Vec<u8>),
}

/// Claim a shared buffer: move the allocation out when this envelope
/// holds the last `Arc` reference, clone the contents otherwise.
/// Monomorphized per element type at [`Envelope::from_shared`].
fn shared_take<T: CommData + Clone + Sync>(
    arc: Arc<dyn Any + Send + Sync>,
) -> Box<dyn Any + Send> {
    let typed = arc
        .downcast::<Vec<T>>()
        .expect("shared claim called with foreign payload");
    let v = Arc::try_unwrap(typed).unwrap_or_else(|still_shared| (*still_shared).clone());
    Box::new(v)
}

/// Monomorphized byte view of a `Payload::Typed` buffer. Captured as a
/// plain `fn` pointer at [`Envelope::new`] so the type-erased envelope
/// can be serialized later without specialization. Only instantiated
/// for `T` without drop glue, which is what makes the byte reading (and
/// the receiving side's byte reconstruction) sound.
fn typed_bytes<T: 'static>(any: &(dyn Any + Send)) -> &[u8] {
    let v = any
        .downcast_ref::<Vec<T>>()
        .expect("wire view called with foreign payload");
    // SAFETY: T has no drop glue and no interior references (checked at
    // capture time via needs_drop); viewing its memory as bytes is a
    // plain reinterpretation of initialized POD storage.
    unsafe {
        std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v.as_slice()))
    }
}

/// Intern a wire-received type name so reconstructed envelopes can
/// carry the same `&'static str` the in-process path does. The set of
/// element types a program sends is small and fixed, so the leak is
/// bounded (one allocation per distinct type name per process).
fn intern_type_name(name: &str) -> &'static str {
    use crate::sync::Mutex;
    use std::collections::HashSet;
    use std::sync::OnceLock;
    static NAMES: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let names = NAMES.get_or_init(|| Mutex::new(HashSet::new()));
    let mut set = names.lock();
    if let Some(&interned) = set.get(name) {
        return interned;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// A typed message in flight between two ranks of one communicator.
pub struct Envelope {
    /// Rank of the sender *within the communicator the message was sent on*.
    pub src: usize,
    /// User-chosen matching tag.
    pub tag: u64,
    /// Payload form (owned, shared, or raw wire bytes).
    payload: Payload,
    /// Payload size in bytes (`len * size_of::<T>()`), for tracing.
    pub bytes: usize,
    /// Number of elements in the payload.
    pub count: usize,
    /// Name of the element type: diagnostics on mismatched receives,
    /// and the cross-process type identity for wire transports (every
    /// rank runs the same binary, so equal names mean equal layouts).
    pub type_name: &'static str,
    /// Size of one element in bytes (`size_of::<T>()`).
    pub elem_size: usize,
    /// Byte view of a `Typed` payload, captured at construction when
    /// the element type is plain data (no drop glue). `None` means the
    /// payload cannot cross a wire transport.
    byte_view: Option<fn(&(dyn Any + Send)) -> &[u8]>,
    /// Packed causal trace context (see `beatnik-telemetry`'s `flow`
    /// module) stamped by the sender when tracing is enabled; `0` on
    /// untraced runs. Carried verbatim by every transport so the
    /// receive side can record the matching flow edge.
    pub ctx: u64,
}

impl std::fmt::Debug for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Envelope")
            .field("src", &self.src)
            .field("tag", &self.tag)
            .field("bytes", &self.bytes)
            .field("count", &self.count)
            .field("type_name", &self.type_name)
            .finish_non_exhaustive()
    }
}

impl Envelope {
    /// Wrap a typed buffer into an envelope (owned form).
    pub fn new<T: CommData>(src: usize, tag: u64, data: Vec<T>) -> Self {
        let count = data.len();
        let bytes = count * std::mem::size_of::<T>();
        Envelope {
            src,
            tag,
            payload: Payload::Typed(Box::new(data)),
            bytes,
            count,
            type_name: std::any::type_name::<T>(),
            elem_size: std::mem::size_of::<T>(),
            byte_view: (!std::mem::needs_drop::<T>()).then_some(typed_bytes::<T> as _),
            ctx: 0,
        }
    }

    /// Wrap a shared buffer into an envelope (shared form). The
    /// sender copies nothing; see the module docs for who ends up owning
    /// the allocation. `T: Clone` is required only for the
    /// earlier-receiver fallback — the last claim is a move.
    pub fn from_shared<T: CommData + Clone + Sync>(src: usize, tag: u64, data: Arc<Vec<T>>) -> Self {
        let count = data.len();
        let bytes = count * std::mem::size_of::<T>();
        Envelope {
            src,
            tag,
            payload: Payload::Shared {
                arc: data,
                take: shared_take::<T>,
            },
            bytes,
            count,
            type_name: std::any::type_name::<T>(),
            elem_size: std::mem::size_of::<T>(),
            byte_view: (!std::mem::needs_drop::<T>()).then_some(typed_bytes::<T> as _),
            ctx: 0,
        }
    }

    /// Stamp a causal trace context onto this envelope (builder-style,
    /// used by the traced send paths). `0` leaves the envelope
    /// untraced.
    #[inline]
    pub fn with_ctx(mut self, ctx: u64) -> Self {
        self.ctx = ctx;
        self
    }

    /// Serialized view of the payload for wire transports: the raw
    /// bytes. `None` when the element type has drop glue — such a
    /// payload cannot leave the process, and a wire backend asked to
    /// carry one must fail loudly rather than corrupt it.
    pub(crate) fn wire_view(&self) -> Option<&[u8]> {
        match &self.payload {
            Payload::Typed(any) => self.byte_view.map(|view| view(any.as_ref())),
            Payload::Shared { arc, .. } => {
                // Dropping `Sync` from the trait object is a plain
                // coercion; the view fn only needs `Any` to downcast.
                self.byte_view.map(|view| view(arc.as_ref() as &(dyn Any + Send)))
            }
            Payload::Raw(bytes) => Some(bytes),
        }
    }

    /// Reconstruct an envelope from a decoded wire frame. The payload
    /// stays as raw bytes until the receiver claims it with a concrete
    /// type, at which point `type_name` equality (same binary on every
    /// rank) proves the layout matches.
    pub(crate) fn from_wire(
        src: usize,
        tag: u64,
        count: usize,
        elem_size: usize,
        type_name: &str,
        bytes: Vec<u8>,
    ) -> Self {
        debug_assert_eq!(bytes.len(), count * elem_size);
        Envelope {
            src,
            tag,
            bytes: bytes.len(),
            count,
            payload: Payload::Raw(bytes),
            type_name: intern_type_name(type_name),
            elem_size,
            byte_view: None,
            ctx: 0,
        }
    }

    /// Recover the typed buffer, panicking with context on a type mismatch.
    ///
    /// A mismatch is a protocol error between sender and receiver — the
    /// moral equivalent of an MPI datatype mismatch — so, like MPI, we
    /// treat it as fatal.
    pub fn into_data<T: CommData>(self) -> Vec<T> {
        self.try_into_data().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Recover the typed buffer, returning [`CommError::TypeMismatch`]
    /// instead of panicking when the element types disagree. Used by the
    /// fallible receive paths, which must surface protocol errors without
    /// tearing the rank down.
    pub fn try_into_data<T: CommData>(self) -> Result<Vec<T>, CommError> {
        let mismatch = CommError::TypeMismatch {
            expected: std::any::type_name::<T>(),
            got: self.type_name,
            src: self.src,
            tag: self.tag,
        };
        match self.payload {
            Payload::Typed(any) => match any.downcast::<Vec<T>>() {
                Ok(v) => Ok(*v),
                Err(_) => Err(mismatch),
            },
            Payload::Shared { arc, take } => match take(arc).downcast::<Vec<T>>() {
                Ok(v) => Ok(*v),
                Err(_) => Err(mismatch),
            },
            Payload::Raw(bytes) => {
                // Wire frames carry type identity by name: equal names
                // in the same binary mean the same type. The layout and
                // drop checks are defense in depth — a name can only
                // disagree with them across incompatible binaries,
                // which the proc launcher never mixes.
                if self.type_name != std::any::type_name::<T>()
                    || self.elem_size != std::mem::size_of::<T>()
                    || std::mem::needs_drop::<T>()
                {
                    return Err(mismatch);
                }
                debug_assert_eq!(bytes.len(), self.count * self.elem_size);
                let mut out: Vec<T> = Vec::with_capacity(self.count);
                // SAFETY: the sender produced these bytes from a
                // `Vec<T>` of a drop-free T with this exact name and
                // size (the only way a wire view exists), so copying
                // them back into T storage reconstructs the values.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        bytes.as_ptr(),
                        out.as_mut_ptr().cast::<u8>(),
                        bytes.len(),
                    );
                    out.set_len(self.count);
                }
                Ok(out)
            }
        }
    }

    /// Whether this envelope is the one a receive from `src` with `tag`
    /// waits for: both must be equal, there are no wildcards.
    #[inline]
    pub fn matches(&self, src: usize, tag: u64) -> bool {
        self.src == src && self.tag == tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn roundtrip_preserves_data_and_metadata() {
        let env = Envelope::new(2, 17, vec![1.0f64, 2.0, 3.0]);
        assert_eq!(env.src, 2);
        assert_eq!(env.tag, 17);
        assert_eq!(env.count, 3);
        assert_eq!(env.bytes, 24);
        let v: Vec<f64> = env.into_data();
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn shared_claims_move_when_last_and_clone_when_not() {
        let buf = Arc::new(vec![1u64, 2, 3]);
        let ptr = buf.as_ptr();
        let e1 = Envelope::from_shared(0, 1, Arc::clone(&buf));
        let e2 = Envelope::from_shared(0, 2, Arc::clone(&buf));
        assert_eq!(e1.bytes, 24);
        assert_eq!(e1.count, 3);
        drop(buf); // only the two envelopes hold the buffer now
        let v1: Vec<u64> = e1.into_data(); // still shared with e2: clones
        assert_eq!(v1, vec![1, 2, 3]);
        assert_ne!(v1.as_ptr(), ptr);
        let v2: Vec<u64> = e2.into_data(); // last reference: moves
        assert_eq!(v2, vec![1, 2, 3]);
        assert_eq!(v2.as_ptr(), ptr);
    }

    #[test]
    fn shared_payloads_have_wire_views_and_reject_type_confusion() {
        let buf = Arc::new(vec![9u32, 8, 7]);
        let env = Envelope::from_shared(2, 5, Arc::clone(&buf));
        let bytes = env.wire_view().expect("u32 is wire-safe").to_vec();
        assert_eq!(bytes.len(), 12);
        let back = Envelope::from_wire(2, 5, env.count, env.elem_size, env.type_name, bytes);
        assert_eq!(back.into_data::<u32>(), vec![9, 8, 7]);
        let err = env.try_into_data::<f32>().unwrap_err();
        assert!(matches!(err, CommError::TypeMismatch { .. }));
    }

    #[test]
    fn matching_is_exact_with_no_wildcards() {
        let env = Envelope::new(1, 5, vec![0u8]);
        assert!(env.matches(1, 5));
        // `usize::MAX` and `u64::MAX` select nothing special.
        assert!(!env.matches(usize::MAX, 5));
        assert!(!env.matches(1, u64::MAX));
        assert!(!env.matches(usize::MAX, u64::MAX));
        assert!(!env.matches(2, 5));
        assert!(!env.matches(1, 6));
    }

    #[test]
    #[should_panic(expected = "message type mismatch")]
    fn type_mismatch_panics_with_context() {
        let env = Envelope::new(0, 0, vec![1u32, 2]);
        let _: Vec<f32> = env.into_data();
    }

    #[test]
    fn try_into_data_reports_mismatch_as_error() {
        let env = Envelope::new(4, 11, vec![1u32, 2]);
        let err = env.try_into_data::<f32>().unwrap_err();
        assert!(matches!(
            err,
            CommError::TypeMismatch { src: 4, tag: 11, .. }
        ));
        assert!(err.to_string().contains("message type mismatch"));
    }

    #[test]
    fn wire_view_roundtrips_plain_data() {
        let env = Envelope::new(3, 21, vec![1.5f64, -2.5, 4.0]);
        let bytes = env.wire_view().expect("f64 is wire-safe").to_vec();
        assert_eq!(bytes.len(), 24);
        let back = Envelope::from_wire(env.src, env.tag, env.count, env.elem_size, env.type_name, bytes);
        assert_eq!(back.src, 3);
        assert_eq!(back.tag, 21);
        assert_eq!(back.count, 3);
        assert_eq!(back.into_data::<f64>(), vec![1.5, -2.5, 4.0]);
    }

    #[test]
    fn droppy_types_have_no_wire_view() {
        let env = Envelope::new(0, 0, vec![String::from("not"), String::from("wireable")]);
        assert!(env.wire_view().is_none());
        // ...but still round-trip in process.
        assert_eq!(env.into_data::<String>().len(), 2);
    }

    #[test]
    fn wire_reconstruction_rejects_type_confusion() {
        let env = Envelope::new(0, 0, vec![7u32, 8]);
        let bytes = env.wire_view().unwrap().to_vec();
        let back = Envelope::from_wire(0, 0, env.count, env.elem_size, env.type_name, bytes);
        let err = back.try_into_data::<f32>().unwrap_err();
        assert!(matches!(err, CommError::TypeMismatch { .. }));
    }

    #[test]
    fn zero_sized_payloads_are_fine() {
        let env = Envelope::new(0, 0, Vec::<f64>::new());
        assert_eq!(env.bytes, 0);
        assert_eq!(env.count, 0);
        let v: Vec<f64> = env.into_data();
        assert!(v.is_empty());
    }
}
