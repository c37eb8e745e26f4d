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
//! A right-looking schedule is fixed by the block-to-processor map
//! alone (paper Section 3.2), so a plan travels as its [`Source`], the
//! generator's inputs, and [`decode`] re-runs the generator:
//!
//! ```text
//! u8 version (= 6)
//! u8 source: 0 Mm, 1 Lu, 2 Cholesky, 3 Qr (Kernel::as_u8), 4 star
//! mb, nb, kb                           block shape; mb = nb = kb but for MM
//! a grid kernel:
//!   p, q                               grid shape
//!   bp, bq                             the owner map's period, at most
//!                                      mb.max(kb) x nb.max(kb), 0 only
//!                                      on an empty side
//!   bp * bq owners                     the tile, row-major, each i, j:
//!                                      block (bi, bj) has the owner of
//!                                      (bi % bp, bj % bq)
//! a star:
//!   workers, worker_mem
//! ```
//!
//! Every number without a `u8` is a varint. A panel distribution's
//! period is its `B_p x B_q` panel, so a plan at nb = 64 on a 4x4 grid
//! with 16 x 16 panels is 521 bytes; a map with no period shorter than
//! the matrix is one tile, one owner per block. `decode(encode(p)) == p`
//! for every generated plan and `encode(decode(b)) == b` for every `b`
//! that decodes, so a cached serve response is interchangeable with a
//! fresh solve. Decoding is total: a shape the generator refuses, a
//! plan past [`MAX_BUILT_LEN`] ([`built_len`], [`counts_len`]), a
//! period of zero or past the shape, an owner outside the grid and
//! trailing bytes are each a typed [`DecodeError`], found before
//! anything is built, so a few bytes cannot expand into a plan a server
//! would refuse to build; any other version byte (version 5 sent one
//! owner per block) is [`DecodeErrorKind::UnsupportedVersion`], which a
//! caller can tell from corruption.

use crate::{Kernel, Owners, Plan, Source};

/// Codec version written by [`encode`] and required by [`decode`].
pub const WIRE_VERSION: u8 = 6;

/// The source tag of a star plan; a grid kernel's is
/// [`Kernel::as_u8`].
const STAR: u8 = 4;

/// The most bytes, as [`built_len`] and [`counts_len`] count them, that
/// a server builds for one plan and that [`decode`] builds: the 16 MiB
/// frame cap every plan had to fit when each step travelled.
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
        self.room(n, min, what)?;
        Ok(n)
    }

    /// Fails unless `n` values of at least `min` bytes each fit in the
    /// bytes left.
    fn room(&self, n: usize, min: usize, what: &'static str) -> Result<(), DecodeError> {
        if n.saturating_mul(min) > self.buf.len() - self.pos {
            return Err(self.err(what, DecodeErrorKind::Truncated));
        }
        Ok(())
    }

    /// Fails unless every byte has been read.
    pub fn done(&self, what: &'static str) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
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

/// The kernel or star, the shape, then a grid kernel's grid, period and
/// tile or a star's workers and memory (see the module docs).
impl Field for Source {
    const MIN_BYTES: usize = 6; // the tag, three shape varints and two more
    fn put(&self, out: &mut Vec<u8>) {
        match *self {
            Source::Grid {
                kernel,
                shape: (mb, nb, kb),
                ref owners,
            } => {
                out.push(kernel.as_u8());
                ((mb, nb), kb).put(out);
                (owners.grid, owners.period).put(out);
                for owner in owners.tile.iter() {
                    owner.put(out);
                }
            }
            Source::Star {
                workers,
                worker_mem,
                shape: (mb, nb, kb),
            } => {
                out.push(STAR);
                ((mb, nb), kb).put(out);
                (workers, worker_mem).put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, DecodeError> {
        let tag = r.byte("plan source")?;
        let ((mb, nb), kb): ((usize, usize), usize) = r.get("block shape")?;
        let shape = (mb, nb, kb);
        let empty = mb == 0 || nb == 0 || kb == 0;
        if tag == STAR {
            let (workers, worker_mem) = r.get("star workers and memory")?;
            if empty || workers == 0 || worker_mem < 3 {
                return Err(invalid(r, "star shape"));
            }
            if star_len(workers, shape) > MAX_BUILT_LEN {
                return Err(invalid(r, "star plan past the built-plan bound"));
            }
            return Ok(Source::Star {
                workers,
                worker_mem,
                shape,
            });
        }
        let kernel = Kernel::from_u8(tag).ok_or_else(|| invalid(r, "plan source"))?;
        let square = mb == nb && nb == kb;
        if (kernel == Kernel::Mm && empty) || (kernel != Kernel::Mm && !square) {
            return Err(invalid(r, "block shape"));
        }
        if built_len(kernel, shape) > MAX_BUILT_LEN {
            return Err(invalid(r, "plan past the built-plan bound"));
        }
        let (p, q) = r.get("grid shape")?;
        if p == 0 || q == 0 || counts_len((p, q), kb) > MAX_BUILT_LEN {
            return Err(invalid(r, "grid shape"));
        }
        let (rows, cols) = (mb.max(kb), nb.max(kb));
        let (bp, bq) = r.get("period")?;
        // Clamped to the shape, so zero only on an empty side.
        let fits = |b: usize, side: usize| b <= side && (b > 0 || side == 0);
        if !fits(bp, rows) || !fits(bq, cols) {
            return Err(invalid(r, "period"));
        }
        let n = bp.saturating_mul(bq);
        r.room(n, <(usize, usize)>::MIN_BYTES, "owner tile")?;
        let mut tile = Vec::with_capacity(n);
        for _ in 0..n {
            let (i, j) = r.get("owner")?;
            if i >= p || j >= q {
                return Err(invalid(r, "owner outside the grid"));
            }
            tile.push((i, j));
        }
        let owners = Owners::new((p, q), (bp, bq), (rows, cols), tile.into());
        Ok(Source::Grid {
            kernel,
            shape,
            owners,
        })
    }
}

/// Serializes a plan to its canonical byte form: its source. A plan
/// whose steps were edited after generation encodes as the plan its
/// source generates.
pub fn encode(plan: &Plan) -> Vec<u8> {
    encode_source(&plan.source)
}

/// The bytes [`encode`] writes for the plan `source` generates, without
/// generating it.
pub fn encode_source(source: &Source) -> Vec<u8> {
    let mut out = vec![WIRE_VERSION];
    source.put(&mut out);
    out
}

/// The bytes of the steps `kernel`'s generator builds on `(mb, nb, kb)`,
/// whatever the grid, counted as version 4 wrote them at their fewest:
/// two for each step's tag and `k`, five for each [`Bcast`](crate::Bcast)
/// (a panel block's, both operand panels' for MM), and for QR two for
/// each panel and trailing block's owner and four for each
/// [`QrColumn`](crate::QrColumn). It costs `O(1)` arithmetic, so a
/// server refuses a plan past [`MAX_BUILT_LEN`] before it builds it.
pub fn built_len(kernel: Kernel, (mb, nb, kb): (usize, usize, usize)) -> usize {
    let [mb, nb, kb] = [mb, nb, kb].map(|d| d as u128);
    let entries = match kernel {
        Kernel::Mm => kb * (mb + nb) * 5,
        // Step k broadcasts blocks (k.., k) and (k, k + 1..).
        Kernel::Lu => nb * nb * 5,
        Kernel::Cholesky => nb * nb.saturating_sub(1) / 2 * 5,
        // Sum over m = nb - k - 1 of the panel's `m + 1` owners and `m`
        // columns of `m` owners each: 2 (m + 1) + m (4 + 2 m).
        Kernel::Qr => {
            let m2 = nb * nb.saturating_sub(1) * (2 * nb).saturating_sub(1) / 3;
            nb * (nb + 1) + 2 * nb * nb.saturating_sub(1) + m2
        }
    };
    usize::try_from(kb * 2 + entries).unwrap_or(usize::MAX)
}

/// The processor counts a grid generator keeps or scans over `steps`
/// steps on a `p x q` grid: one table of `p q` a step (LU keeps them,
/// Cholesky scans them), one at least.
pub fn counts_len((p, q): (usize, usize), steps: usize) -> usize {
    p.saturating_mul(q).saturating_mul(steps.max(1))
}

/// An upper bound on the bytes a star plan builds: two a step, at most
/// `2 + 5 kb` steps per block of `C` (its zero load, its eviction, `kb`
/// updates, and no more than `4 kb` loads and evictions of the `A` and
/// `B` blocks streamed to its tile), plus its per-worker table.
fn star_len(workers: usize, (mb, nb, kb): (usize, usize, usize)) -> usize {
    let steps = mb as u128 * nb as u128 * (2 + 5 * kb as u128);
    usize::try_from(steps * 2 + workers as u128).unwrap_or(usize::MAX)
}

/// Rebuilds a plan from [`encode`]'s byte form by re-running its
/// generator. Total: any malformed input (wrong version, truncation, a
/// source [`decode`] refuses to build, trailing bytes) is a
/// [`DecodeError`], never a panic.
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
    let source: Source = r.get("plan source")?;
    r.done("trailing bytes after plan")?;
    Ok(source.plan())
}

/// An [`DecodeErrorKind::InvalidField`] at `r`'s offset.
fn invalid(r: &Reader<'_>, what: &'static str) -> DecodeError {
    r.err(what, DecodeErrorKind::InvalidField)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cholesky_plan, factor_plan, mm_plan, mm_rect_plan, qr_plan, star_mm_plan, Step};
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

    /// What [`built_len`] counts of a built plan: two bytes a step, five
    /// a broadcast, two a QR owner and four a QR column.
    fn counted(plan: &Plan) -> usize {
        let entries = |step: &Step| match step {
            Step::Mm {
                a_bcasts, b_bcasts, ..
            } => 5 * (a_bcasts.len() + b_bcasts.len()),
            Step::Factor {
                l_bcasts, u_bcasts, ..
            } => 5 * (l_bcasts.len() + u_bcasts.len()),
            Step::Cholesky { panel_bcasts, .. } => 5 * panel_bcasts.len(),
            Step::Qr { panel, columns, .. } => {
                let members: usize = columns.iter().map(|c| 4 + 2 * c.members.len()).sum();
                2 * panel.len() + members
            }
            Step::Load { .. } | Step::Compute { .. } | Step::Evict { .. } => 0,
        };
        plan.steps.iter().map(|s| 2 + entries(s)).sum()
    }

    #[test]
    fn built_len_counts_every_built_plan() {
        for dist in sweep_dists() {
            for kernel in Kernel::ALL {
                for nb in 1..=24 {
                    let plan = kernel.plan(dist.as_ref(), nb);
                    let shape = (nb, nb, nb);
                    assert_eq!(
                        built_len(kernel, shape),
                        counted(&plan),
                        "{kernel:?} nb {nb}"
                    );
                }
            }
            let rect = mm_rect_plan(dist.as_ref(), (4, 7, 3));
            assert_eq!(built_len(Kernel::Mm, (4, 7, 3)), counted(&rect));
        }
    }

    /// The owners of `blocks` other than `skip`, each once, in order:
    /// how every stored list was built, read from `dist`.
    fn distinct(
        dist: &dyn hetgrid_dist::BlockDist,
        blocks: impl Iterator<Item = (usize, usize)>,
        skip: (usize, usize),
    ) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (bi, bj) in blocks {
            let o = dist.owner(bi, bj);
            if o != skip && !out.contains(&o) {
                out.push(o);
            }
        }
        out
    }

    /// Every list [`materialise`](crate::tests::materialise) derives
    /// through a step's owner table against the list the generators
    /// stored, rebuilt from `dist` with the stored lists' formulas.
    fn lists_match(dist: &dyn hetgrid_dist::BlockDist, plan: &Plan, (mb, nb): (usize, usize)) {
        use crate::tests::stored::{Bcast, Step as S};
        let line = |b: &Bcast, blocks: Vec<(usize, usize)>| {
            assert_eq!(b.src, dist.owner(b.block.0, b.block.1));
            assert_eq!(b.dests, distinct(dist, blocks.into_iter(), b.src), "{b:?}");
        };
        // One `Dests` over the whole plan gives each broadcast the list a
        // fresh one does.
        let mut dests = crate::Dests::default();
        for step in &plan.steps {
            for (owners, b) in crate::tests::all_bcasts(step) {
                assert_eq!(dests.of(owners, b).collect::<Vec<_>>(), owners.dests(b));
                assert_eq!(dests.count(owners, b), owners.dests(b).len());
            }
        }
        for step in crate::tests::materialise(plan) {
            match step {
                S::Mm {
                    a_bcasts, b_bcasts, ..
                } => {
                    for b in &a_bcasts {
                        line(b, (0..nb).map(|bj| (b.block.0, bj)).collect());
                    }
                    for b in &b_bcasts {
                        line(b, (0..mb).map(|bi| (bi, b.block.1)).collect());
                    }
                }
                S::Factor {
                    k,
                    diag,
                    diag_col_dests,
                    l_bcasts,
                    u_bcasts,
                    ..
                } => {
                    let column = (k + 1..nb).map(|bi| (bi, k));
                    assert_eq!(diag_col_dests, distinct(dist, column, diag));
                    for b in &l_bcasts {
                        line(b, (k + 1..nb).map(|bj| (b.block.0, bj)).collect());
                    }
                    for b in &u_bcasts {
                        line(b, (k + 1..nb).map(|bi| (bi, b.block.1)).collect());
                    }
                }
                S::Cholesky {
                    k,
                    diag,
                    diag_dests,
                    panel_bcasts,
                    ..
                } => {
                    let column = (k + 1..nb).map(|bi| (bi, k));
                    assert_eq!(diag_dests, distinct(dist, column, diag));
                    for b in &panel_bcasts {
                        let bi = b.block.0;
                        let row = (k + 1..=bi).map(|bj| (bi, bj));
                        line(b, row.chain((bi..nb).map(|r| (r, bi))).collect());
                    }
                }
                S::Qr {
                    k,
                    diag,
                    reflector_dests,
                    columns,
                    ..
                } => {
                    let heads = (k + 1..nb).map(|bj| (k, bj));
                    assert_eq!(reflector_dests, distinct(dist, heads, diag));
                    for col in &columns {
                        assert_eq!(col.head, dist.owner(k, col.bj));
                        let owners: Vec<_> = (k + 1..nb).map(|bi| dist.owner(bi, col.bj)).collect();
                        assert_eq!(col.members, owners);
                    }
                }
            }
        }
    }

    #[test]
    fn derived_lists_are_the_stored_ones() {
        for dist in sweep_dists() {
            for kernel in Kernel::ALL {
                for nb in 1..=24 {
                    lists_match(dist.as_ref(), &kernel.plan(dist.as_ref(), nb), (nb, nb));
                }
            }
            for shape in [(1, 1, 5), (4, 7, 3), (9, 2, 6)] {
                let rect = mm_rect_plan(dist.as_ref(), shape);
                lists_match(dist.as_ref(), &rect, (shape.0, shape.1));
            }
        }
    }

    /// `decode(encode(p)) == p` and `encode(decode(b)) == b`.
    fn round_trips(plan: &Plan) {
        let bytes = encode(plan);
        let back = decode(&bytes).expect("a generated plan decodes");
        assert_eq!(back, *plan);
        assert_eq!(encode(&back), bytes);
    }

    #[test]
    fn swept_plans_round_trip() {
        for dist in sweep_dists() {
            for kernel in Kernel::ALL {
                for nb in 1..=24 {
                    round_trips(&kernel.plan(dist.as_ref(), nb));
                }
            }
            for shape in [(1, 1, 5), (4, 7, 3), (9, 2, 6)] {
                round_trips(&mm_rect_plan(dist.as_ref(), shape));
            }
        }
        for (workers, mem, shape) in [(1, 3, (1, 1, 1)), (2, 7, (4, 3, 3)), (3, 13, (7, 6, 4))] {
            round_trips(&star_mm_plan(&star(workers, mem), shape));
        }
    }

    fn invalid_what(bytes: &[u8]) -> &'static str {
        let err = decode(bytes).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::InvalidField, "{err}");
        err.what
    }

    #[test]
    fn a_few_bytes_claiming_a_huge_plan_build_nothing() {
        // MM at nb = 4096 (4096 is two varint bytes), on a 2x2 grid, and
        // no owners: refused by its shape before the table is read.
        let t0 = std::time::Instant::now();
        let mm = [WIRE_VERSION, 0, 0x80, 0x20, 0x80, 0x20, 0x80, 0x20, 2, 2];
        assert_eq!(invalid_what(&mm), "plan past the built-plan bound");
        // QR at the largest varint, and a star whose steps pass the bound.
        let mut qr = vec![WIRE_VERSION, 3];
        for _ in 0..3 {
            (u32::MAX as usize).put(&mut qr);
        }
        assert_eq!(invalid_what(&qr), "plan past the built-plan bound");
        let star = [WIRE_VERSION, STAR, 0x80, 0x08, 0x80, 0x08, 0x80, 0x08, 1, 3];
        assert_eq!(invalid_what(&star), "star plan past the built-plan bound");
        // LU at nb = 2 on a grid whose count tables pass the bound.
        let mut lu = vec![WIRE_VERSION, 1, 2, 2, 2];
        (1usize << 13, 1usize << 13).put(&mut lu);
        assert_eq!(invalid_what(&lu), "grid shape");
        assert!(t0.elapsed().as_secs_f64() < 1.0);
    }

    #[test]
    fn a_source_the_generator_refuses_is_a_typed_error() {
        // The LU plan at nb = 2 on a 1 x 2 grid: version, tag, shape,
        // grid, the 1 x 2 period, then its two owners.
        let lu = factor_plan(&BlockCyclic::new(1, 2), 2);
        let bytes = encode(&lu);
        assert_eq!(bytes, [6, 1, 2, 2, 2, 1, 2, 1, 2, 0, 0, 0, 1]);
        let with = |at: usize, b: u8| {
            let mut evil = bytes.clone();
            evil[at] = b;
            evil
        };
        assert_eq!(invalid_what(&with(1, 5)), "plan source");
        assert_eq!(invalid_what(&with(3, 3)), "block shape");
        assert_eq!(invalid_what(&with(5, 0)), "grid shape");
        assert_eq!(invalid_what(&with(9, 1)), "owner outside the grid");
        assert_eq!(invalid_what(&with(12, 2)), "owner outside the grid");
        // A period of zero, and one past the 2 x 2 block matrix, on
        // either side.
        for (at, b) in [(7, 0), (8, 0), (7, 3), (8, 3)] {
            assert_eq!(invalid_what(&with(at, b)), "period", "byte {at} = {b}");
        }
        // A short owner tile, and a byte past the end of the plan.
        let err = decode(&bytes[..bytes.len() - 2]).unwrap_err();
        assert_eq!(
            (err.kind, err.what),
            (DecodeErrorKind::Truncated, "owner tile")
        );
        let mut long = bytes.clone();
        long.push(0);
        let err = decode(&long).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::TrailingBytes);
        // MM with a zero dimension; a star with no worker or too little
        // memory to stream.
        let mm = [WIRE_VERSION, 0, 0, 1, 1, 1, 1];
        assert_eq!(invalid_what(&mm), "block shape");
        for (workers, mem) in [(0, 3), (1, 2)] {
            let star = [WIRE_VERSION, STAR, 1, 1, 1, workers, mem];
            assert_eq!(invalid_what(&star), "star shape");
        }
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
            factor_plan(&BlockCyclic::new(1, 1), 0),
        ]
    }

    #[test]
    fn round_trips_every_kernel_plan() {
        for plan in all_plans() {
            round_trips(&plan);
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
    fn star_byte_layout_is_pinned() {
        // Cross-version pin: this spells the v6 byte layout of a star
        // plan out longhand. If encode() changes, bump WIRE_VERSION —
        // old caches and remote peers hold these bytes.
        let plan = star_mm_plan(&star(1, 3), (1, 1, 1));
        #[rustfmt::skip]
        let want: Vec<u8> = vec![
            6,       // version
            4,       // star
            1, 1, 1, // shape (mb, nb, kb)
            1, 3,    // one worker, three blocks of memory
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
    fn v3_v4_and_v5_plans_are_an_unsupported_version() {
        // The two-block QR plan on one processor as v3 wrote it, both
        // steps in long form, as v4 wrote it, the second as tag 7 and
        // k 1, and as v5 wrote it, one owner per block.
        #[rustfmt::skip]
        let v3 = [3, 1, 1, 0, 2,
            3, 0, 0, 0, 2, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0,
            3, 1, 0, 0, 1, 0, 0, 0, 0];
        let mut v4 = v3[..22].to_vec();
        v4[0] = 4;
        v4.extend([7, 1]);
        let v5 = [5, 3, 2, 2, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0];
        for (version, bytes) in [(3, &v3[..]), (4, &v4[..]), (5, &v5[..])] {
            let err = decode(bytes).unwrap_err();
            assert_eq!(err.kind, DecodeErrorKind::UnsupportedVersion(version));
            assert_eq!(err.offset, 0);
        }
        let plan = qr_plan(&BlockCyclic::new(1, 1), 2);
        assert_eq!(encode(&plan), [6, 3, 2, 2, 2, 1, 1, 1, 1, 0, 0]);
    }

    #[test]
    fn qr_plan_length_is_pinned() {
        // The QR plan at nb = 64 on a 4 x 4 cyclic grid: nine bytes of
        // header with the 4 x 4 period, then two bytes per owner of the
        // tile (8 199 bytes at v5, which sent an owner per block).
        let plan = qr_plan(&BlockCyclic::new(4, 4), 64);
        assert_eq!(encode(&plan).len(), 41);
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
        // The v6 bytes of every plan in `all_plans`, grid kernels
        // included, as one digest each. If one moves, bump WIRE_VERSION.
        let got: Vec<u64> = all_plans().iter().map(|p| fnv(&encode(p))).collect();
        assert_eq!(
            got,
            [
                0x25de_da0c_399f_cf29,
                0x9d8a_b689_7257_cf87,
                0xb449_a53c_f8c7_2bd7,
                0x0787_b438_3dad_871c,
                0x1ef0_0bff_3dbe_4d2a,
                0xc3ce_852a_26b1_1ff8,
                0xf496_3866_19c9_adbb,
                0x3786_417e_41b8_b15e,
            ]
        );
    }

    #[test]
    fn non_qr_plan_bodies_are_pinned_across_versions() {
        // Everything after the version byte of every non-QR plan in
        // `all_plans`, pinned at v6: a version bump that keeps the

        // source's layout leaves these bytes where they are.
        let got: Vec<u64> = all_plans()
            .iter()
            .filter(|p| !matches!(p.steps.first(), Some(Step::Qr { .. })))
            .map(|p| fnv(&encode(p)[1..]))
            .collect();
        assert_eq!(
            got,
            [
                0xef96_1f2b_ba16_c68d,
                0xf076_fdf4_c255_69e3,
                0x7e00_ea5c_793e_233b,
                0xe3b9_dbe0_26e9_6de0,
                0x2f91_5ee0_b85b_fb2c,
                0xfae1_f0c8_c0f9_283f,
                0x211e_6231_6e78_ad8a,
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
