//! Message-arena storage behind the committed-snapshot seam.
//!
//! [`crate::lbp::LbpEngine`] always *computes* in flat `f64` arenas, but
//! the messages a long-lived session holds between deltas dominate
//! resident memory and the snapshot wire format at scale. This module is
//! the seam between the two: a committed arena ([`crate::LbpMessages`])
//! is either the exact `f64` image of the engine state or a quantized
//! form at half the bytes, chosen per session by [`MessageStore`]. An
//! exact session keeps its `f64` arenas resident between deltas and
//! encodes them only for snapshots; a quantized one commits every delta
//! and keeps only the quantized form.
//!
//! ## Quantized representation
//!
//! [`QuantArena`] stores each 64-slot block as one `f64` **anchor**
//! (the block's first finite value, kept at full precision — the
//! "per-block f64 accumulator" that keeps damping/normalization
//! arithmetic stable after a resume) plus `f32` **residuals** relative
//! to that anchor. Normalized log-messages cluster tightly within a
//! factor's edge span, so residuals are small and the `f32` mantissa is
//! spent on actual information; the worst case (a block mixing clamped
//! `LOG_ZERO ≈ -1e4` evidence with ordinary messages) still bounds the
//! absolute decode error by `|spread| · ε_f32 ≈ 1e-3` on values whose
//! probabilities are astronomically separated anyway.
//!
//! Two properties the serving contracts rely on, certified by tests
//! here and by proptests over the full pipeline:
//!
//! * **determinism** — encoding is a pure function of the input bits,
//!   so writer and replica quantize identically;
//! * **idempotence** — `encode(decode(encode(x))) == encode(x)`
//!   bit-for-bit on representative message data. The anchor is an
//!   element of the block (not a mean), so re-encoding a decoded block
//!   reproduces the exact anchor, and residuals survive the
//!   `f64 → f32` round trip (signed zeros are canonicalized at encode
//!   so the fixed point is bitwise; the only residuals that can drift
//!   are those below the anchor's `f64` precision window, ~2⁻²⁹ of the
//!   anchor — far beyond quantization tolerance either way). The parity
//!   contracts (restart, replica) rely only on determinism plus
//!   bit-exact serialization: both the uninterrupted and the restored
//!   session resume from the *same committed representation*, so their
//!   subsequent commits agree bit-for-bit regardless.

/// Values per quantization block (one `f64` anchor per block).
pub const QUANT_BLOCK: usize = 64;

/// Which committed-message representation a session keeps between
/// deltas. The engine's working state is `f64` either way; this only
/// selects what [`crate::lbp::LbpState::export_messages`] commits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MessageStore {
    /// Bit-exact `f64` arenas (the default): commit/resume round-trips
    /// are identity, 8 bytes per message slot.
    #[default]
    Exact,
    /// Per-block `f64` anchors + `f32` residuals: ~4.13 bytes per slot,
    /// decode within quantization tolerance of the exact path.
    Quantized,
}

/// A quantized message arena: per-block anchors at full precision,
/// per-slot residuals at `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantArena {
    anchors: Vec<f64>,
    residuals: Vec<f32>,
}

impl QuantArena {
    /// Quantize a flat arena. Pure and deterministic.
    pub fn encode(xs: &[f64]) -> Self {
        let mut anchors = Vec::with_capacity(xs.len().div_ceil(QUANT_BLOCK));
        let mut residuals = Vec::with_capacity(xs.len());
        for block in xs.chunks(QUANT_BLOCK) {
            // The anchor must be finite (a ±∞ anchor would wipe out the
            // whole block's finite values); a block with no finite value
            // anchors at 0.0 so ±∞/NaN residuals pass through verbatim.
            // `+ 0.0` canonicalizes -0.0 to +0.0 (decode would flip the
            // sign of zero anyway, so storing it would break the
            // fixed-point property).
            let anchor = block.iter().copied().find(|x| x.is_finite()).unwrap_or(0.0) + 0.0;
            residuals.extend(block.iter().map(|&x| (((x + 0.0) - anchor) as f32) + 0.0));
            anchors.push(anchor);
        }
        Self { anchors, residuals }
    }

    /// Number of message slots.
    pub fn len(&self) -> usize {
        self.residuals.len()
    }

    /// True for a zero-slot arena.
    pub fn is_empty(&self) -> bool {
        self.residuals.is_empty()
    }

    /// Dequantize into `out` (must have length [`QuantArena::len`]).
    pub fn decode_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.len(), "decode target length mismatch");
        for (b, chunk) in out.chunks_mut(QUANT_BLOCK).enumerate() {
            let anchor = self.anchors[b];
            for (y, &r) in chunk.iter_mut().zip(&self.residuals[b * QUANT_BLOCK..]) {
                *y = anchor + r as f64;
            }
        }
    }

    /// The stored representation, for bit-exact serialization:
    /// `(anchors, residuals)`.
    pub fn state(&self) -> (&[f64], &[f32]) {
        (&self.anchors, &self.residuals)
    }

    /// Rebuild from serialized state; validates the anchor/residual
    /// shape invariant.
    pub fn from_state(anchors: Vec<f64>, residuals: Vec<f32>) -> Result<Self, String> {
        let want = residuals.len().div_ceil(QUANT_BLOCK);
        if anchors.len() != want {
            return Err(format!(
                "{} anchors for {} residuals (expected {want})",
                anchors.len(),
                residuals.len()
            ));
        }
        Ok(Self { anchors, residuals })
    }

    /// Heap bytes resident in this arena.
    pub fn heap_bytes(&self) -> usize {
        self.anchors.capacity() * 8 + self.residuals.capacity() * 4
    }

    fn bitwise_eq(&self, other: &Self) -> bool {
        self.anchors.len() == other.anchors.len()
            && self.residuals.len() == other.residuals.len()
            && self.anchors.iter().zip(&other.anchors).all(|(a, b)| a.to_bits() == b.to_bits())
            && self.residuals.iter().zip(&other.residuals).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// One committed message arena — exact or quantized.
#[derive(Debug, Clone)]
pub enum MessageArena {
    /// The engine's `f64` image, unmodified.
    Exact(Vec<f64>),
    /// Anchors + residuals (see [`QuantArena`]).
    Quantized(QuantArena),
}

impl MessageArena {
    /// Encode a flat engine arena under `store`.
    pub fn encode(xs: &[f64], store: MessageStore) -> Self {
        match store {
            MessageStore::Exact => MessageArena::Exact(xs.to_vec()),
            MessageStore::Quantized => MessageArena::Quantized(QuantArena::encode(xs)),
        }
    }

    /// Number of message slots.
    pub fn len(&self) -> usize {
        match self {
            MessageArena::Exact(v) => v.len(),
            MessageArena::Quantized(q) => q.len(),
        }
    }

    /// True for a zero-slot arena.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize into `out` (must have length [`MessageArena::len`]).
    /// Exact arenas copy bit-for-bit; quantized arenas dequantize.
    pub fn decode_into(&self, out: &mut [f64]) {
        match self {
            MessageArena::Exact(v) => out.copy_from_slice(v),
            MessageArena::Quantized(q) => q.decode_into(out),
        }
    }

    /// Materialize as an owned flat arena.
    pub fn to_vec(&self) -> Vec<f64> {
        match self {
            MessageArena::Exact(v) => v.clone(),
            MessageArena::Quantized(q) => {
                let mut out = vec![0.0; q.len()];
                q.decode_into(&mut out);
                out
            }
        }
    }

    /// Heap bytes resident in this arena.
    pub fn heap_bytes(&self) -> usize {
        match self {
            MessageArena::Exact(v) => v.capacity() * 8,
            MessageArena::Quantized(q) => q.heap_bytes(),
        }
    }

    /// Bitwise equality of the **stored representation** (restart
    /// parity is defined over the bits a snapshot persists, so two
    /// arenas of different kinds are never equal even if they decode
    /// identically).
    pub fn bitwise_eq(&self, other: &Self) -> bool {
        match (self, other) {
            (MessageArena::Exact(a), MessageArena::Exact(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (MessageArena::Quantized(a), MessageArena::Quantized(b)) => a.bitwise_eq(b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn messy_arena() -> Vec<f64> {
        let mut xs: Vec<f64> =
            (0..300).map(|i| -((i % 7) as f64) * 0.31 - 0.001 * i as f64).collect();
        xs[5] = -1.0e4; // LOG_ZERO-clamped slot
        xs[64] = f64::NEG_INFINITY;
        xs[65] = -0.0;
        xs[130] = f64::NAN;
        xs
    }

    #[test]
    fn quantized_decode_is_within_block_spread_tolerance() {
        let xs = messy_arena();
        let q = QuantArena::encode(&xs);
        let mut out = vec![0.0; xs.len()];
        q.decode_into(&mut out);
        for (i, (&x, &y)) in xs.iter().zip(&out).enumerate() {
            if x.is_nan() {
                assert!(y.is_nan(), "slot {i}");
            } else if x.is_infinite() {
                assert_eq!(x, y, "slot {i}");
            } else {
                // Worst-case spread in `messy_arena` is the LOG_ZERO slot.
                assert!((x - y).abs() <= 1.0e4 * f32::EPSILON as f64 * 4.0, "slot {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn quantize_is_idempotent_after_one_cycle() {
        let xs = messy_arena();
        let q1 = QuantArena::encode(&xs);
        let mut once = vec![0.0; xs.len()];
        q1.decode_into(&mut once);
        let q2 = QuantArena::encode(&once);
        assert!(q1.bitwise_eq(&q2), "re-encoding a decoded arena must be a fixed point");
        let mut twice = vec![0.0; xs.len()];
        q2.decode_into(&mut twice);
        assert!(once
            .iter()
            .zip(&twice)
            .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())));
    }

    #[test]
    fn all_infinite_block_anchors_at_zero() {
        let xs = vec![f64::NEG_INFINITY; 70];
        let q = QuantArena::encode(&xs);
        let mut out = vec![0.0; 70];
        q.decode_into(&mut out);
        assert!(out.iter().all(|&y| y == f64::NEG_INFINITY));
    }

    #[test]
    fn state_roundtrip_and_validation() {
        let q = QuantArena::encode(&messy_arena());
        let (a, r) = q.state();
        let back = QuantArena::from_state(a.to_vec(), r.to_vec()).unwrap();
        assert!(q.bitwise_eq(&back));
        assert!(QuantArena::from_state(vec![0.0; 9], vec![0.0f32; 70]).is_err());
    }

    #[test]
    fn arena_kinds_never_compare_equal() {
        let xs = vec![-0.5; 10];
        let e = MessageArena::encode(&xs, MessageStore::Exact);
        let q = MessageArena::encode(&xs, MessageStore::Quantized);
        assert!(!e.bitwise_eq(&q));
        assert!(e.bitwise_eq(&e.clone()));
        assert!(q.bitwise_eq(&q.clone()));
        assert_eq!(e.to_vec(), q.to_vec()); // constant block quantizes exactly
    }

    #[test]
    fn quantized_heap_bytes_are_roughly_half() {
        let xs = vec![-1.25; 4096];
        let e = MessageArena::encode(&xs, MessageStore::Exact);
        let q = MessageArena::encode(&xs, MessageStore::Quantized);
        // 4 bytes/slot of residuals + 1/8 byte/slot of anchors ≈ 52%.
        assert!(
            q.heap_bytes() * 100 <= e.heap_bytes() * 52,
            "{} vs {}",
            q.heap_bytes(),
            e.heap_bytes()
        );
    }

    #[test]
    fn empty_arena() {
        let q = QuantArena::encode(&[]);
        assert!(q.is_empty());
        q.decode_into(&mut []);
        let e = MessageArena::encode(&[], MessageStore::Exact);
        assert!(e.is_empty() && e.to_vec().is_empty());
    }
}
