//! The workspace's one binary codec, and the byte form of a [`Plan`]
//! written with it: compact, versioned and deterministic, so a schedule
//! can be cached, shipped over a socket, or written to disk and rebuilt
//! bit-for-bit elsewhere.
//!
//! Every encoded type implements [`Field`] once: `put` appends its
//! bytes, `get` reads them back through the bounds-checked [`Reader`],
//! and `MIN_BYTES` is the fewest bytes it occupies, so every length
//! prefix is checked against the bytes left before anything is
//! allocated. A `usize` — every index, count and length prefix — is an
//! unsigned LEB128 varint of a `u32`: seven bits a byte, low group
//! first, the high bit set on every byte but the last, so a value below
//! 128 takes one byte and none takes more than five. Only the shortest
//! form is accepted, so every value has one encoding. The fixed-width
//! integers (`u16`, `u32`, `u64`) are little-endian, an `f64` is its
//! raw IEEE-754 bits, a `Vec` or `String` is a count followed by its
//! elements, a pair is its two halves. `hetgrid-serve` writes its
//! request/response protocol and its cache keys with the same fields
//! and reads them with the same [`Reader`] and [`DecodeError`].
//!
//! Plan format (`decode(encode(p)) == p`, and `encode(decode(b)) == b`
//! for every `b` that decodes, which is what makes a cached serve
//! response interchangeable with a fresh solve):
//!
//! ```text
//! u8 version (= 4)
//! p, q                                 grid shape
//! rows, then per row: n, n counts      owned-C table (0 rows when empty)
//! nsteps, then per step:
//!   u8 tag: 0 Mm, 1 Factor, 2 Cholesky, 3 Qr,
//!           4 Load, 5 Compute, 6 Evict (star steps),
//!           7 Qr advanced (the short form below)
//!   tag-specific fields in declaration order; a grid coordinate is two
//!   varints; a Mat is one byte (0 A, 1 B, 2 C), a LoadSrc one byte
//!   (0 Master, 1 Zero), a bool one byte (0 / 1).
//! Qr (tag 3), the long form:
//!   k, diag
//!   n, then n owners                   panel: owner of block (k + i, k)
//!   n, then n grid coordinates         reflector_dests
//!   ncols, then per column:
//!     bj, head
//!     n, then n owners                 members: owner of (k + 1 + i, bj)
//! Qr advanced (tag 7), the short form:
//!   k                                  the step before it, advanced
//! ```
//!
//! Every number above without a `u8` is a varint. A QR owner list names
//! no block: its position does ([`down_column`](crate::down_column)).
//!
//! A right-looking factorization is fixed by the block-to-processor map
//! alone, so each QR step after the first restates what the step before
//! it already said. A QR step `s` is the QR step `t` before it
//! *advanced* by one block when `s.k == t.k + 1`, `s`'s panel is the
//! members of `t`'s first column (so `s.diag` is its first entry),
//! each later column of `t` keeps its `bj` and its members but the
//! first, which becomes its head, and `s.reflector_dests` are the
//! distinct heads other than `s.diag` in column order. Such a step is
//! written as tag 7 and `k`, two bytes, and every later step of a
//! [`qr_plan`](crate::qr_plan) is one. The form is canonical both ways:
//! a long-form step equal to its predecessor advanced, a short form not
//! after a QR step that can advance (one with a trailing column and no
//! empty column), and a short form whose `k` is not one past its
//! predecessor's are each [`DecodeErrorKind::InvalidField`]. A
//! short form costs two bytes but [`built_len`]'s share of the plan in
//! memory, so [`decode`] counts every QR step it holds against
//! [`MAX_BUILT_LEN`] before materialising it: two bytes of input cannot
//! expand into a plan a server would refuse to build. Any other version
//! byte, such as version 3's, which wrote every QR step in long form,
//! is [`DecodeErrorKind::UnsupportedVersion`].
//!
//! Decoding is total: malformed input yields a typed [`DecodeError`]
//! (never a panic), and trailing garbage after a well-formed plan is an
//! error too, so a decoded plan always accounts for every input byte.
//! The [`DecodeErrorKind`] distinguishes recoverable situations — a
//! peer speaking a newer codec ([`DecodeErrorKind::UnknownStepTag`] /
//! [`DecodeErrorKind::UnsupportedVersion`]) — from plain corruption, so
//! callers can downgrade gracefully instead of treating every failure
//! as data loss.

use crate::{Bcast, Kernel, LoadSrc, Mat, OwnerWork, Plan, QrColumn, Step};

/// Codec version written by [`encode`] and required by [`decode`].
pub const WIRE_VERSION: u8 = 4;

/// The step tag of a QR step written as its predecessor advanced.
const QR_ADVANCED: u8 = 7;

/// The most bytes, as [`built_len`] counts them, that a server builds
/// for one plan and that [`decode`] materialises for a plan's QR steps.
/// It is the 16 MiB frame cap the long form of every plan had to fit,
/// so what can be built is what could be built before QR steps had a
/// short form.
pub const MAX_BUILT_LEN: usize = 16 * 1024 * 1024;

/// Why a buffer failed to decode (see [`DecodeError`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeErrorKind {
    /// The input ended mid-field, or a length prefix implied more bytes
    /// than remain.
    Truncated,
    /// The version byte is not the one this build speaks; the payload
    /// may be valid for a different codec generation.
    UnsupportedVersion(u8),
    /// A step tag outside the known set — likely a plan from a newer
    /// codec that added step kinds.
    UnknownStepTag(u8),
    /// A field held a value outside its valid range.
    InvalidField,
    /// Bytes left over after a complete value.
    TrailingBytes,
}

/// A malformed buffer: what went wrong and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// What the decoder was reading when the input ran out or made no
    /// sense.
    pub what: &'static str,
    /// Machine-checkable failure class.
    pub kind: DecodeErrorKind,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "malformed payload at byte {}: {}",
            self.offset, self.what
        )
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked cursor over an encoded buffer: every read yields
/// its bytes or a [`DecodeError`] at the current offset.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// An error of `kind` at the current offset.
    pub fn err(&self, what: &'static str, kind: DecodeErrorKind) -> DecodeError {
        DecodeError {
            offset: self.pos,
            what,
            kind,
        }
    }

    /// True once every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let bytes = self.buf[self.pos..]
            .get(..n)
            .ok_or_else(|| self.err(what, DecodeErrorKind::Truncated))?;
        self.pos += n;
        Ok(bytes)
    }

    /// The next `N` bytes, by value.
    #[inline]
    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], DecodeError> {
        let (bytes, _) = self.buf[self.pos..]
            .split_first_chunk::<N>()
            .ok_or_else(|| self.err(what, DecodeErrorKind::Truncated))?;
        self.pos += N;
        Ok(*bytes)
    }

    /// The next byte.
    #[inline]
    pub fn byte(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.array::<1>(what)?[0])
    }

    /// The next value of type `T`.
    #[inline]
    pub fn get<T: Field>(&mut self, what: &'static str) -> Result<T, DecodeError> {
        T::get(self, what)
    }

    /// Reads a varint element count and checks it against the bytes left
    /// (each element needs at least `min` bytes), so a corrupt length can
    /// never trigger a huge allocation.
    #[inline]
    fn count(&mut self, min: usize, what: &'static str) -> Result<usize, DecodeError> {
        let n: usize = self.get(what)?;
        if n.saturating_mul(min) > self.buf.len() - self.pos {
            return Err(self.err(what, DecodeErrorKind::Truncated));
        }
        Ok(n)
    }

    /// Fails unless every byte has been read.
    pub fn done(&self, what: &'static str) -> Result<(), DecodeError> {
        if !self.is_empty() {
            return Err(self.err(what, DecodeErrorKind::TrailingBytes));
        }
        Ok(())
    }
}

/// A value with one byte form: `put` writes it, `get` reads it back.
// The small and the container `put`s below are `#[inline]`: a plan's
// encoder is one call tree through them, and left to the codegen-unit
// split it ran ~17% slower than hand-written writers (MM plan, nb = 64,
// 4x4 grid, x86-64). Every `get` and the `Reader` helpers are too, for
// the same reason (only the multi-byte varint stays out of line): with
// a call per field, decoding the QR plan at nb = 64 on a 4x4 grid took
// about twice as long.
pub trait Field: Sized {
    /// The fewest bytes one encoded value occupies.
    const MIN_BYTES: usize;
    /// Appends the value's bytes to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads one value; `what` names it in any error.
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, DecodeError>;
}

macro_rules! le_ints {
    ($($t:ty),*) => {$(
        impl Field for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, DecodeError> {
                Ok(<$t>::from_le_bytes(r.array(what)?))
            }
        }
    )*};
}
le_ints!(u16, u32, u64);

/// An index or count: the unsigned LEB128 varint of its `u32` value.
/// Decoding rejects an overlong form (a last byte of zero after the
/// first) and a value above `u32::MAX` as [`DecodeErrorKind::InvalidField`].
impl Field for usize {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        let mut v = *self as u32;
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    #[inline]
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, DecodeError> {
        // Nearly every plan index is below 128: one byte, one branch.
        match r.buf.get(r.pos) {
            Some(&b) if b < 0x80 => {
                r.pos += 1;
                Ok(usize::from(b))
            }
            _ => long_varint(r, what),
        }
    }
}

/// The varint at `r` whose first byte, if there is one, has its
/// continuation bit set (`usize::get` reads the one-byte form itself,
/// inline): two to five bytes, or an error.
#[inline(never)]
fn long_varint(r: &mut Reader<'_>, what: &'static str) -> Result<usize, DecodeError> {
    let mut v = 0u64;
    for shift in (0..35).step_by(7) {
        let b = r.byte(what)?;
        v |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            if b == 0 || v > u64::from(u32::MAX) {
                break;
            }
            return Ok(v as usize);
        }
    }
    Err(r.err(what, DecodeErrorKind::InvalidField))
}

/// The raw IEEE-754 bits, so a value round-trips bit for bit.
impl Field for f64 {
    const MIN_BYTES: usize = 8;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    #[inline]
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, DecodeError> {
        Ok(f64::from_bits(r.get(what)?))
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    #[inline]
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, DecodeError> {
        Ok((r.get(what)?, r.get(what)?))
    }
}

impl<T: Field> Field for Vec<T> {
    const MIN_BYTES: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for v in self {
            v.put(out);
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, DecodeError> {
        let n = r.count(T::MIN_BYTES, what)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(r.get(what)?);
        }
        Ok(v)
    }
}

/// Opaque bytes, copied whole.
impl Field for Vec<u8> {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.extend_from_slice(self);
    }
    #[inline]
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, DecodeError> {
        let n = r.count(1, what)?;
        Ok(r.take(n, what)?.to_vec())
    }
}

/// UTF-8 bytes.
impl Field for String {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, DecodeError> {
        let bytes = Vec::<u8>::get(r, what)?;
        String::from_utf8(bytes).map_err(|_| r.err(what, DecodeErrorKind::InvalidField))
    }
}

/// One byte: the value's index in `all`.
#[inline]
fn one_of<T: Copy, const N: usize>(
    r: &mut Reader<'_>,
    what: &'static str,
    all: [T; N],
) -> Result<T, DecodeError> {
    let b = r.byte(what)?;
    all.get(usize::from(b))
        .copied()
        .ok_or_else(|| r.err(what, DecodeErrorKind::InvalidField))
}

impl Field for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, DecodeError> {
        one_of(r, what, [false, true])
    }
}

impl Field for Mat {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, DecodeError> {
        one_of(r, what, [Mat::A, Mat::B, Mat::C])
    }
}

impl Field for LoadSrc {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, DecodeError> {
        one_of(r, what, [LoadSrc::Master, LoadSrc::Zero])
    }
}

/// A struct as its fields in declaration order, each read under the
/// struct's `what`.
macro_rules! record_codec {
    ($($t:ident { $($field:ident),+ } = $min:expr;)+) => {$(
        impl Field for $t {
            const MIN_BYTES: usize = $min;
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)+
            }
            #[inline]
            fn get(r: &mut Reader<'_>, what: &'static str) -> Result<Self, DecodeError> {
                Ok($t { $($field: r.get(what)?),+ })
            }
        }
    )+};
}

record_codec! {
    Bcast { block, src, dests } = 5;
    OwnerWork { owner, blocks } = 3;
    QrColumn { bj, head, members } = 4;
}

/// A step as its tag byte, then its fields in declaration order; a
/// field is read under the name `"<Kind> <field>"`. This table is the
/// one place a step kind's layout is written down.
macro_rules! step_codec {
    ($($tag:literal => $kind:ident { $($field:ident),+ })+) => {
        impl Field for Step {
            const MIN_BYTES: usize = 2; // the tag and `k`
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $(Step::$kind { $($field),+ } => {
                        out.push($tag);
                        $($field.put(out);)+
                    })+
                }
            }
            #[inline]
            fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, DecodeError> {
                Ok(match r.byte("step tag")? {
                    $($tag => Step::$kind {
                        $($field: r.get(concat!(stringify!($kind), " ", stringify!($field)))?),+
                    },)+
                    t => return Err(r.err("unknown step tag", DecodeErrorKind::UnknownStepTag(t))),
                })
            }
        }
    };
}

step_codec! {
    0 => Mm { k, a_bcasts, b_bcasts }
    1 => Factor { k, diag, panel, diag_col_dests, l_bcasts, trsm, u_bcasts, trailing }
    2 => Cholesky { k, diag, diag_dests, panel, panel_bcasts, trailing }
    3 => Qr { k, diag, panel, reflector_dests, columns }
    4 => Load { k, worker, mat, block, src }
    5 => Compute { k, worker, c, a, b }
    6 => Evict { k, worker, mat, block, send_back }
}

/// Serializes a plan to its canonical byte form.
pub fn encode(plan: &Plan) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + plan.steps.len() * 64);
    encode_into(plan, &mut out);
    out
}

/// Serializes a plan into a caller-provided buffer, appending the
/// canonical byte form. Clearing and reusing one buffer across many
/// encodes (the serve cache's hot path) avoids a fresh allocation per
/// plan; the bytes appended are identical to [`encode`]'s.
pub fn encode_into(plan: &Plan, out: &mut Vec<u8>) {
    out.push(WIRE_VERSION);
    plan.grid.put(out);
    plan.owned.put(out);
    plan.steps.len().put(out);
    let mut prev = None;
    for step in &plan.steps {
        match (prev, step) {
            (Some(prev), Step::Qr { k, .. }) if advances(prev, step) => {
                out.push(QR_ADVANCED);
                k.put(out);
            }
            _ => step.put(out),
        }
        prev = Some(step);
    }
}

/// `(k, first column's members, later columns)` of a QR step with a
/// trailing column and no empty column: the steps that can advance.
fn advanceable(step: &Step) -> Option<(usize, &[(usize, usize)], &[QrColumn])> {
    let Step::Qr { k, columns, .. } = step else {
        return None;
    };
    let (first, rest) = columns.split_first()?;
    let all_full = columns.iter().all(|c| !c.members.is_empty());
    all_full.then_some((*k, &first.members[..], rest))
}

/// Whether `next` is `prev` advanced by one block (see the module
/// docs), checked in place.
fn advances(prev: &Step, next: &Step) -> bool {
    let Some((k0, first, rest)) = advanceable(prev) else {
        return false;
    };
    let Step::Qr {
        k,
        diag,
        panel,
        reflector_dests,
        columns,
    } = next
    else {
        return false;
    };
    let same_columns = columns.len() == rest.len()
        && columns
            .iter()
            .zip(rest)
            .all(|(c, t)| c.bj == t.bj && c.head == t.members[0] && c.members == t.members[1..]);
    if k0.checked_add(1) != Some(*k) || panel[..] != *first || first[0] != *diag || !same_columns {
        return false;
    }
    // `reflector_dests` must be the heads' first occurrences, in order.
    let mut seen = 0;
    for c in columns {
        if c.head == *diag || reflector_dests[..seen].contains(&c.head) {
            continue;
        }
        if reflector_dests.get(seen) != Some(&c.head) {
            return false;
        }
        seen += 1;
    }
    seen == reflector_dests.len()
}

/// The bytes a QR step with `panel` owners and columns of `members`
/// owners each counts toward [`MAX_BUILT_LEN`]: the tag and `k`, then
/// every owner and column at its [`Field::MIN_BYTES`], as
/// [`built_len`] counts them.
fn qr_step_len(panel: usize, members: impl Iterator<Item = usize>) -> usize {
    let owner = <(usize, usize)>::MIN_BYTES;
    let columns: usize = members.map(|m| QrColumn::MIN_BYTES + m * owner).sum();
    Step::MIN_BYTES + panel * owner + columns
}

/// A lower bound on the bytes of what `kernel.plan(dist, nb)` builds,
/// over every distribution on every grid, counted as the long form of
/// its steps: whatever the grid, each step of an MM, LU or Cholesky
/// plan holds one [`Bcast`] per panel block (both operand panels for
/// MM), and each QR step one owner per panel and trailing block and
/// one [`QrColumn`] per trailing column; each is counted at its
/// [`Field::MIN_BYTES`]. It costs `O(nb)` arithmetic, so a server can
/// refuse a plan past [`MAX_BUILT_LEN`] before it builds it. For every
/// kernel but QR it is also a lower bound on the encoding; for QR see
/// [`min_plan_len`].
pub fn built_len(kernel: Kernel, nb: usize) -> usize {
    let owner = <(usize, usize)>::MIN_BYTES;
    let entries = match kernel {
        Kernel::Mm => 2 * nb * nb * Bcast::MIN_BYTES,
        // Step k broadcasts blocks (k.., k) and (k, k + 1..).
        Kernel::Lu => nb * nb * Bcast::MIN_BYTES,
        Kernel::Cholesky => nb * nb.saturating_sub(1) / 2 * Bcast::MIN_BYTES,
        // Step k: the panel's `m + 1` owners, then `m` columns of `m`
        // owners each, for `m = nb - k - 1` trailing blocks a column.
        Kernel::Qr => (0..nb)
            .map(|m| (m + 1) * owner + m * (QrColumn::MIN_BYTES + m * owner))
            .sum(),
    };
    nb * Step::MIN_BYTES + entries
}

/// A lower bound on `encode(&kernel.plan(dist, nb)).len()` over every
/// distribution on every grid: [`built_len`], but for QR, whose steps
/// after the first are two bytes each, its first step alone.
pub fn min_plan_len(kernel: Kernel, nb: usize) -> usize {
    match (kernel, nb) {
        (Kernel::Qr, 1..) => {
            let m = nb - 1;
            m * Step::MIN_BYTES + qr_step_len(nb, std::iter::repeat_n(m, m))
        }
        _ => built_len(kernel, nb),
    }
}

/// Rebuilds a plan from [`encode`]'s byte form. Total: any malformed
/// input (wrong version, truncation, oversize counts, trailing bytes, a
/// QR step in the form the encoder would not write, QR steps past
/// [`MAX_BUILT_LEN`]) is a [`DecodeError`], never a panic.
pub fn decode(buf: &[u8]) -> Result<Plan, DecodeError> {
    let mut r = Reader::new(buf);
    let version = r.byte("version byte")?;
    if version != WIRE_VERSION {
        return Err(DecodeError {
            offset: 0,
            ..r.err(
                "unsupported plan codec version",
                DecodeErrorKind::UnsupportedVersion(version),
            )
        });
    }
    let grid = r.get("grid shape")?;
    let owned = r.get("owned-C table")?;
    let n = r.count(Step::MIN_BYTES, "step count")?;
    let mut steps: Vec<Step> = Vec::with_capacity(n);
    let mut built = 0;
    for _ in 0..n {
        let step = if r.buf.get(r.pos) == Some(&QR_ADVANCED) {
            r.pos += 1;
            let k: usize = r.get("Qr k")?;
            let Some((k0, first, rest)) = steps.last().and_then(advanceable) else {
                return Err(invalid(&r, "short-form Qr step with no Qr step to advance"));
            };
            if k0.checked_add(1) != Some(k) {
                return Err(invalid(&r, "short-form Qr step k"));
            }
            let len = qr_step_len(first.len(), rest.iter().map(|c| c.members.len() - 1));
            charge(&mut built, len, &r)?;
            advanced(k, first, rest)
        } else {
            let step: Step = r.get("step")?;
            if let Step::Qr { panel, columns, .. } = &step {
                if steps.last().is_some_and(|prev| advances(prev, &step)) {
                    let what = "long-form Qr step equal to its predecessor advanced";
                    return Err(invalid(&r, what));
                }
                let len = qr_step_len(panel.len(), columns.iter().map(|c| c.members.len()));
                charge(&mut built, len, &r)?;
            }
            step
        };
        steps.push(step);
    }
    r.done("trailing bytes after plan")?;
    Ok(Plan { grid, owned, steps })
}

/// An [`DecodeErrorKind::InvalidField`] at `r`'s offset.
fn invalid(r: &Reader<'_>, what: &'static str) -> DecodeError {
    r.err(what, DecodeErrorKind::InvalidField)
}

/// Adds a QR step's `len` to the plan's `built` total, or fails once
/// the total passes [`MAX_BUILT_LEN`].
fn charge(built: &mut usize, len: usize, r: &Reader<'_>) -> Result<(), DecodeError> {
    *built += len;
    if *built > MAX_BUILT_LEN {
        return Err(invalid(r, "Qr steps past the built-plan bound"));
    }
    Ok(())
}

/// QR step `k`: the step before it, whose first column's members are
/// `first` and whose later columns are `rest`, advanced by one block.
fn advanced(k: usize, first: &[(usize, usize)], rest: &[QrColumn]) -> Step {
    let diag = first[0];
    let columns: Vec<QrColumn> = rest
        .iter()
        .map(|c| QrColumn {
            bj: c.bj,
            head: c.members[0],
            members: c.members[1..].to_vec(),
        })
        .collect();
    let mut reflector_dests = Vec::new();
    for c in &columns {
        if c.head != diag && !reflector_dests.contains(&c.head) {
            reflector_dests.push(c.head);
        }
    }
    Step::Qr {
        k,
        diag,
        panel: first.to_vec(),
        reflector_dests,
        columns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cholesky_plan, factor_plan, mm_plan, mm_rect_plan, qr_plan, star_mm_plan};
    use hetgrid_core::Topology;
    use hetgrid_dist::BlockCyclic;

    fn star(workers: usize, worker_mem: usize) -> Topology {
        Topology::Star {
            workers,
            worker_mem,
            master_bw: 1.0,
        }
    }

    /// Cyclic, panel and KL distributions on 1x1, 2x2, 3x3 and 4x4
    /// grids.
    fn sweep_dists() -> Vec<Box<dyn hetgrid_dist::BlockDist>> {
        use hetgrid_core::Arrangement;
        use hetgrid_dist::{KlDist, PanelDist, PanelOrdering};
        let shapes = [vec![vec![1.0]], vec![vec![1.0, 2.0], vec![3.0, 5.0]]];
        let shapes = shapes
            .into_iter()
            .chain([vec![vec![1.0, 4.0, 2.0]; 3]])
            .chain([(0..4)
                .map(|i| (1..=4).map(|j| f64::from(i + j)).collect())
                .collect()]);
        let mut dists: Vec<Box<dyn hetgrid_dist::BlockDist>> = Vec::new();
        for rows in shapes {
            let arr = Arrangement::from_rows(&rows);
            let alloc = hetgrid_core::exact::solve_arrangement(&arr).alloc;
            let (p, q) = (arr.p(), arr.q());
            dists.push(Box::new(BlockCyclic::new(p, q)));
            dists.push(Box::new(PanelDist::from_allocation(
                &arr,
                &alloc,
                2 * p,
                2 * q,
                PanelOrdering::Interleaved,
            )));
            dists.push(Box::new(KlDist::new(&arr, 2 * p, 2 * q)));
        }
        dists
    }

    #[test]
    fn min_plan_len_never_exceeds_the_encoding() {
        for dist in sweep_dists() {
            let (p, q) = dist.grid();
            for kernel in Kernel::ALL {
                for nb in 1..=24 {
                    let plan = kernel.plan(dist.as_ref(), nb);
                    let len = encode(&plan).len();
                    let bound = min_plan_len(kernel, nb);
                    assert!(
                        bound <= len,
                        "{kernel:?} nb {nb} on {p}x{q}: {bound} > {len}"
                    );
                    let long: usize = plan.steps.iter().map(|s| long_form(s).len()).sum();
                    let built = built_len(kernel, nb);
                    assert!(
                        built <= long,
                        "{kernel:?} nb {nb} on {p}x{q}: {built} > {long}"
                    );
                }
            }
        }
    }

    /// A step's long form.
    fn long_form(step: &Step) -> Vec<u8> {
        let mut out = Vec::new();
        step.put(&mut out);
        out
    }

    #[test]
    fn swept_plans_round_trip_and_qr_sends_its_first_step() {
        for dist in sweep_dists() {
            let (p, q) = dist.grid();
            for kernel in Kernel::ALL {
                for nb in 1..=24 {
                    let plan = kernel.plan(dist.as_ref(), nb);
                    let bytes = encode(&plan);
                    let back = decode(&bytes).expect("a generated plan decodes");
                    assert_eq!(back, plan, "{kernel:?} nb {nb} on {p}x{q}");
                    assert_eq!(encode(&back), bytes, "{kernel:?} nb {nb} on {p}x{q}");
                    if kernel == Kernel::Qr {
                        // The header, the first step, two bytes a step.
                        let header = with_steps(&plan, &[]).len();
                        let most = header + long_form(&plan.steps[0]).len() + 2 * (nb - 1);
                        assert!(
                            bytes.len() <= most,
                            "QR nb {nb} on {p}x{q}: {}",
                            bytes.len()
                        );
                    }
                }
            }
        }
    }

    /// A plan's bytes with `steps` written after `plan`'s header, each
    /// as the given raw bytes.
    fn with_steps(plan: &Plan, steps: &[Vec<u8>]) -> Vec<u8> {
        let mut out = vec![WIRE_VERSION];
        plan.grid.put(&mut out);
        plan.owned.put(&mut out);
        steps.len().put(&mut out);
        for s in steps {
            out.extend_from_slice(s);
        }
        out
    }

    /// The long form of each of `plan`'s steps.
    fn long_forms(plan: &Plan) -> Vec<Vec<u8>> {
        plan.steps.iter().map(long_form).collect()
    }

    fn invalid_what(bytes: &[u8]) -> &'static str {
        let err = decode(bytes).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::InvalidField, "{err}");
        err.what
    }

    #[test]
    fn only_the_canonical_qr_form_decodes() {
        let plan = qr_plan(&BlockCyclic::new(2, 2), 5);
        let long = long_forms(&plan);
        // Every step long: the second equals the first advanced.
        assert_eq!(
            invalid_what(&with_steps(&plan, &long)),
            "long-form Qr step equal to its predecessor advanced"
        );
        // A short form first, or after a non-QR step.
        let no_prev = "short-form Qr step with no Qr step to advance";
        assert_eq!(
            invalid_what(&with_steps(&plan, &[vec![QR_ADVANCED, 0]])),
            no_prev
        );
        let mm = long_forms(&mm_plan(&BlockCyclic::new(2, 2), 1));
        let after_mm = [mm[0].clone(), vec![QR_ADVANCED, 1]];
        assert_eq!(invalid_what(&with_steps(&plan, &after_mm)), no_prev);
        // The last QR step has no trailing column to advance.
        let last = [long[4].clone(), vec![QR_ADVANCED, 5]];
        assert_eq!(invalid_what(&with_steps(&plan, &last)), no_prev);
        // A short form whose k is not one past its predecessor's.
        for k in [0, 2, 7] {
            let steps = [long[0].clone(), vec![QR_ADVANCED, k]];
            assert_eq!(
                invalid_what(&with_steps(&plan, &steps)),
                "short-form Qr step k"
            );
        }
        // The canonical bytes: the first step long, then two bytes each.
        let canonical: Vec<Vec<u8>> = std::iter::once(long[0].clone())
            .chain((1..5).map(|k| vec![QR_ADVANCED, k]))
            .collect();
        assert_eq!(with_steps(&plan, &canonical), encode(&plan));
        // A step that differs from the advance in any list stays long.
        let Step::Qr {
            reflector_dests, ..
        } = &plan.steps[1]
        else {
            unreachable!()
        };
        assert!(!reflector_dests.is_empty());
        let mut odd = plan.clone();
        let Step::Qr {
            reflector_dests, ..
        } = &mut odd.steps[1]
        else {
            unreachable!()
        };
        reflector_dests.reverse();
        reflector_dests.push((9, 9));
        let bytes = encode(&odd);
        assert_eq!(bytes[with_steps(&plan, &long[..1]).len()], 3, "step 1 long");
        assert_eq!(decode(&bytes).unwrap(), odd);
    }

    #[test]
    fn short_forms_cannot_expand_past_the_built_plan_bound() {
        // The first step of a QR plan at nb = 300 (about 180 KB), then
        // 299 short forms: the whole would be `built_len(Qr, 300)`.
        let nb = 300;
        assert!(built_len(Kernel::Qr, nb) > MAX_BUILT_LEN);
        let owner = |bi: usize, bj: usize| (bi % 2, bj % 2);
        let first = Step::Qr {
            k: 0,
            diag: owner(0, 0),
            panel: (0..nb).map(|bi| owner(bi, 0)).collect(),
            reflector_dests: vec![(0, 1)],
            columns: (1..nb)
                .map(|bj| QrColumn {
                    bj,
                    head: owner(0, bj),
                    members: (1..nb).map(|bi| owner(bi, bj)).collect(),
                })
                .collect(),
        };
        let mut steps = vec![long_form(&first)];
        assert_eq!(steps[0].len(), 181_080);
        steps.extend((1..nb).map(|k| {
            let mut s = vec![QR_ADVANCED];
            k.put(&mut s);
            s
        }));
        let empty = Plan {
            grid: (2, 2),
            owned: vec![],
            steps: vec![],
        };
        let bytes = with_steps(&empty, &steps);
        let t0 = std::time::Instant::now();
        assert_eq!(invalid_what(&bytes), "Qr steps past the built-plan bound");
        assert!(t0.elapsed().as_secs_f64() < 5.0);
    }

    fn all_plans() -> Vec<Plan> {
        let dist = BlockCyclic::new(2, 3);
        vec![
            mm_plan(&dist, 5),
            mm_rect_plan(&dist, (4, 6, 3)),
            factor_plan(&dist, 6),
            cholesky_plan(&dist, 6),
            qr_plan(&dist, 5),
            star_mm_plan(&star(2, 7), (4, 3, 3)),
            star_mm_plan(&star(1, 3), (2, 2, 2)),
            Plan {
                grid: (1, 1),
                owned: vec![],
                steps: vec![],
            },
        ]
    }

    #[test]
    fn encode_into_reused_buffer_matches_encode() {
        let mut buf = Vec::new();
        for plan in all_plans() {
            buf.clear();
            encode_into(&plan, &mut buf);
            assert_eq!(buf, encode(&plan));
        }
    }

    #[test]
    fn round_trips_every_kernel_plan() {
        for plan in all_plans() {
            let bytes = encode(&plan);
            let back = decode(&bytes).expect("well-formed plan must decode");
            assert_eq!(back, plan);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let dist = BlockCyclic::new(3, 2);
        let a = encode(&factor_plan(&dist, 7));
        let b = encode(&factor_plan(&dist, 7));
        assert_eq!(a, b);
    }

    #[test]
    fn truncation_at_every_length_errors_not_panics() {
        for bytes in [
            encode(&qr_plan(&BlockCyclic::new(2, 2), 4)),
            encode(&star_mm_plan(&star(2, 7), (3, 3, 2))),
        ] {
            for len in 0..bytes.len() {
                assert!(
                    decode(&bytes[..len]).is_err(),
                    "truncated prefix of {len} bytes decoded successfully"
                );
            }
        }
    }

    #[test]
    fn corrupt_counts_and_tags_error_not_panic() {
        for bytes in [
            encode(&factor_plan(&BlockCyclic::new(2, 2), 4)),
            encode(&star_mm_plan(&star(2, 7), (3, 3, 2))),
        ] {
            // Flip each byte in turn to an extreme value; decode must
            // return (any) result without panicking or allocating wildly.
            for i in 0..bytes.len() {
                let mut evil = bytes.clone();
                evil[i] = 0xFF;
                let _ = decode(&evil);
            }
        }
        let err = decode(&[9]).unwrap_err();
        assert_eq!(err.what, "unsupported plan codec version");
        assert_eq!(err.kind, DecodeErrorKind::UnsupportedVersion(9));
    }

    #[test]
    fn unknown_step_tag_is_a_typed_error() {
        // A hypothetical future step kind: tag 8 after a valid header.
        let mut bytes = encode(&Plan {
            grid: (1, 2),
            owned: vec![],
            steps: vec![],
        });
        // Rewrite the one-byte step count from 0 to 1 and append the
        // alien tag.
        *bytes.last_mut().unwrap() = 1;
        bytes.extend_from_slice(&[8; 24]);
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::UnknownStepTag(8));
        assert_eq!(err.what, "unknown step tag");
    }

    #[test]
    fn invalid_enum_bytes_are_typed_errors() {
        let plan = star_mm_plan(&star(1, 3), (1, 1, 1));
        let bytes = encode(&plan);
        // Version, grid (2), owned [[0, 1]] (4) and the step count: 8
        // bytes. The first star step is `Load { k: 0, worker: 1, mat, .. }`;
        // its mat byte sits right after the tag and two one-byte varints.
        let header = 1 + 2 + 4 + 1;
        let mat_at = header + 1 + 1 + 1;
        assert_eq!(bytes[mat_at], 2, "expected the C-accumulator load");
        let mut evil = bytes.clone();
        evil[mat_at] = 3;
        assert_eq!(
            decode(&evil).unwrap_err().kind,
            DecodeErrorKind::InvalidField
        );
        for len in 0..bytes.len() {
            let err = decode(&bytes[..len]).unwrap_err();
            assert_eq!(err.kind, DecodeErrorKind::Truncated, "at {len}");
        }
    }

    #[test]
    fn star_byte_layout_is_pinned() {
        // Cross-version pin: this spells the v4 byte layout of every
        // star step kind out longhand. If encode() changes, bump
        // WIRE_VERSION — old caches and remote peers hold these bytes.
        let plan = star_mm_plan(&star(1, 3), (1, 1, 1));
        #[rustfmt::skip]
        let want: Vec<u8> = vec![
            4,          // version
            1, 2,       // grid 1 x 2
            1, 2, 0, 1, // owned [[0, 1]]
            7,          // 7 steps; each: tag, k, worker 1, then its fields
            4, 0, 1, 2, 0, 0, 1,    // Load C (0,0) Zero
            4, 1, 1, 1, 0, 0, 0,    // Load B (0,0) Master
            4, 2, 1, 0, 0, 0, 0,    // Load A (0,0) Master
            5, 3, 1, 0, 0, 0, 0, 0, 0, // Compute c a b = (0,0)
            6, 4, 1, 0, 0, 0, 0,    // Evict A (0,0), drop
            6, 5, 1, 1, 0, 0, 0,    // Evict B (0,0), drop
            6, 6, 1, 2, 0, 0, 1,    // Evict C (0,0), send back
        ];
        assert_eq!(encode(&plan), want);
        assert_eq!(decode(&want).unwrap(), plan);
    }

    #[test]
    fn v1_plans_are_an_unsupported_version() {
        // The empty 1 x 2 plan as v1 wrote it: fixed-width u32 fields.
        let v1 = [1, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let err = decode(&v1).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::UnsupportedVersion(1));
        assert_eq!(err.offset, 0);
    }

    #[test]
    fn v2_plans_are_an_unsupported_version() {
        // The one-block QR plan as v2 wrote it: its panel entry is the
        // block (0, 0) and its owner, where v3 writes the owner alone.
        #[rustfmt::skip]
        let v2 = [2, 1, 1, 0, 1, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
        let err = decode(&v2).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::UnsupportedVersion(2));
        assert_eq!(err.offset, 0);
    }

    #[test]
    fn v3_plans_are_an_unsupported_version() {
        // The two-block QR plan on one processor as v3 wrote it: both
        // steps in long form, where v4 writes the second as tag 7, k 1.
        #[rustfmt::skip]
        let v3 = [3, 1, 1, 0, 2,
            3, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0,
            3, 1, 0, 0, 1, 0, 0, 0, 0];
        let err = decode(&v3).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::UnsupportedVersion(3));
        assert_eq!(err.offset, 0);
        let plan = qr_plan(&BlockCyclic::new(1, 1), 2);
        let mut v4 = v3[..22].to_vec();
        v4[0] = 4;
        v4.extend([7, 1]);
        assert_eq!(encode(&plan), v4);
    }

    #[test]
    fn qr_plan_length_is_pinned() {
        // The QR plan at nb = 64 on a 4 x 4 cyclic grid: its first step
        // in long form, two bytes per owner list entry, then two bytes
        // per step (183 737 bytes at v3, every step long).
        let plan = qr_plan(&BlockCyclic::new(4, 4), 64);
        assert_eq!(encode(&plan).len(), 8_462);
    }

    fn varint(bytes: &[u8]) -> Result<usize, DecodeError> {
        let mut r = Reader::new(bytes);
        let v = r.get("value")?;
        r.done("trailing bytes")?;
        Ok(v)
    }

    #[test]
    fn varints_round_trip_at_the_group_edges() {
        for (v, want) in [
            (0usize, &[0x00][..]),
            (127, &[0x7F]),
            (128, &[0x80, 0x01]),
            (16_383, &[0xFF, 0x7F]),
            (16_384, &[0x80, 0x80, 0x01]),
            (1 << 28, &[0x80, 0x80, 0x80, 0x80, 0x01]),
            (u32::MAX as usize, &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]),
        ] {
            let mut out = Vec::new();
            v.put(&mut out);
            assert_eq!(out, want, "{v}");
            assert_eq!(varint(&out), Ok(v));
        }
    }

    #[test]
    fn noncanonical_and_truncated_varints_are_typed_errors() {
        let kind = |b: &[u8]| varint(b).unwrap_err().kind;
        // Overlong: a zero last group after the first byte.
        assert_eq!(kind(&[0x80, 0x00]), DecodeErrorKind::InvalidField);
        assert_eq!(kind(&[0xFF, 0x80, 0x00]), DecodeErrorKind::InvalidField);
        // Above u32::MAX: 2^32, and a fifth byte that continues.
        assert_eq!(
            kind(&[0x80, 0x80, 0x80, 0x80, 0x10]),
            DecodeErrorKind::InvalidField
        );
        assert_eq!(
            kind(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]),
            DecodeErrorKind::InvalidField
        );
        // A continuation bit with nothing after it.
        assert_eq!(kind(&[0x80]), DecodeErrorKind::Truncated);
        assert_eq!(kind(&[0xFF, 0xFF]), DecodeErrorKind::Truncated);
        assert_eq!(kind(&[]), DecodeErrorKind::Truncated);
    }

    /// FNV-1a 64 over `bytes`.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn kernel_plan_bytes_are_pinned() {
        // The v4 bytes of every plan in `all_plans`, grid kernels
        // included, as one digest each. If one moves, bump WIRE_VERSION.
        let got: Vec<u64> = all_plans().iter().map(|p| fnv(&encode(p))).collect();
        assert_eq!(
            got,
            [
                0x8843_b2ce_5e33_18c1,
                0x09ed_683f_a481_6eef,
                0x931d_0a7d_1bbc_40e0,
                0xd68d_0187_84a0_61f0,
                0xdc76_099c_c87c_dc48,
                0x85f2_7655_f9a2_52fe,
                0xb4f2_ef9a_1047_e0ad,
                0x1aaf_9226_dea0_81dd,
            ]
        );
    }

    #[test]
    fn non_qr_plan_bodies_are_pinned_across_versions() {
        // Everything after the version byte of every non-QR plan in
        // `all_plans`, pinned at v2: a version bump that reshapes one
        // step kind leaves every other kind's bytes where they were.
        let got: Vec<u64> = all_plans()
            .iter()
            .filter(|p| !matches!(p.steps.first(), Some(Step::Qr { .. })))
            .map(|p| fnv(&encode(p)[1..]))
            .collect();
        assert_eq!(
            got,
            [
                0xc83e_b7f2_b470_4ccf,
                0x6ce6_c597_4a7d_a729,
                0xd2e3_1143_f8e3_a1ee,
                0x5b38_4847_9626_58de,
                0x4e6f_28b9_cc8a_147c,
                0x5e35_3629_a426_7a03,
                0xb5d4_4577_4c80_560f,
            ]
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&mm_plan(&BlockCyclic::new(2, 2), 3));
        bytes.push(0);
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.what, "trailing bytes after plan");
        assert_eq!(err.kind, DecodeErrorKind::TrailingBytes);
    }
}
