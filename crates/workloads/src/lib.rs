//! Seeded, deterministic address-stream generators for application-shaped
//! workloads.
//!
//! The ISPASS 2007 paper measures contiguous streams; the related work
//! measures what Cell was actually used for: GUPS-style random access for
//! graph analysis, lattice-QCD stencil streaming with fixed neighbor halo
//! exchange, and biomolecular pair-list gather/scatter. This crate
//! generates those access patterns as plain effective-address streams —
//! [`cellsim_mfc::ListElement`] batches and element offsets — which
//! `cellsim-core` compiles into per-SPE `SpeScript`s/`TransferPlan`s on
//! the existing DMA-elem/DMA-list machinery.
//!
//! # Determinism
//!
//! Every stream is a pure function of its parameter struct and the
//! consumer-supplied indices: generation is counter-based
//! ([`cellsim_kernel::rng::derive_seed`] of `seed ⊕ spe ⊕ index`), never
//! stateful, so streams are identical regardless of generation order,
//! thread count, or how many elements the consumer asks for first.
//!
//! # Parameter packing
//!
//! Each parameter struct packs losslessly into a `u64`
//! (`pack`/`unpack`), which callers fold into their run-cache keys: two
//! runs with equal packed parameters generate identical streams, and any
//! parameter change changes the key.

use std::fmt;

use cellsim_kernel::rng::derive_seed;
use cellsim_mfc::{ListElement, MAX_DMA_BYTES};

/// Why a parameter word or stream request is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// A table size exponent outside the supported range.
    BadTableLog2(u8),
    /// A GUPS access granularity that is not a valid DMA size in 8..=128.
    BadGrain(u32),
    /// A packed parameter word with bits set outside its layout.
    BadPacked(u64),
    /// A grid-shape exponent outside the supported range.
    BadShape {
        /// log2 of the subgrid rows.
        rows_log2: u8,
        /// log2 of the subgrid columns.
        cols_log2: u8,
    },
    /// A halo width that is zero or does not fit the subgrid.
    BadHalo {
        /// The rejected halo width in cells.
        halo: u32,
    },
    /// A pair-list record size that is not a quadword-multiple DMA size.
    BadRecord(u32),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::BadTableLog2(l) => {
                write!(
                    f,
                    "table_log2 {l} outside {MIN_TABLE_LOG2}..={MAX_TABLE_LOG2}"
                )
            }
            StreamError::BadGrain(g) => {
                write!(f, "grain {g} is not a power-of-two DMA size in 8..=128")
            }
            StreamError::BadPacked(p) => write!(f, "packed parameter word {p:#x} is malformed"),
            StreamError::BadShape {
                rows_log2,
                cols_log2,
            } => write!(
                f,
                "subgrid shape 2^{rows_log2} x 2^{cols_log2} outside the supported range"
            ),
            StreamError::BadHalo { halo } => {
                write!(f, "halo width {halo} is zero or does not fit the subgrid")
            }
            StreamError::BadRecord(r) => write!(
                f,
                "record size {r} is not a power-of-two quadword multiple <= {MAX_DMA_BYTES}"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// Smallest supported lookup-table exponent (4 KiB).
pub const MIN_TABLE_LOG2: u8 = 12;
/// Largest supported lookup-table exponent (16 MiB — half a memory
/// region, so a table always fits the owning SPE's region).
pub const MAX_TABLE_LOG2: u8 = 24;

fn check_table_log2(table_log2: u8) -> Result<(), StreamError> {
    if (MIN_TABLE_LOG2..=MAX_TABLE_LOG2).contains(&table_log2) {
        Ok(())
    } else {
        Err(StreamError::BadTableLog2(table_log2))
    }
}

/// The `i`-th draw of the stream `(seed, lane)`: counter-based, so any
/// element can be generated without generating its predecessors.
fn draw(seed: u64, lane: u64, i: u64) -> u64 {
    derive_seed(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F), i)
}

// ---------------------------------------------------------------------------
// GUPS
// ---------------------------------------------------------------------------

/// Parameters of a GUPS random-update stream: every access reads (and
/// writes back) one `grain`-byte entry at a uniformly random quadword-
/// aligned slot of a `2^table_log2`-byte table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GupsParams {
    /// log2 of the per-SPE table size in bytes.
    pub table_log2: u8,
    /// Stream seed; each SPE derives an independent lane from it.
    pub seed: u32,
}

impl GupsParams {
    /// Packs into the `u64` run-key parameter word.
    #[must_use]
    pub fn pack(&self) -> u64 {
        (u64::from(self.table_log2) << 32) | u64::from(self.seed)
    }

    /// Unpacks and validates a parameter word.
    ///
    /// # Errors
    ///
    /// [`StreamError::BadPacked`] for stray bits,
    /// [`StreamError::BadTableLog2`] for an out-of-range table.
    pub fn unpack(packed: u64) -> Result<GupsParams, StreamError> {
        if packed >> 40 != 0 {
            return Err(StreamError::BadPacked(packed));
        }
        let p = GupsParams {
            table_log2: ((packed >> 32) & 0xFF) as u8,
            seed: (packed & 0xFFFF_FFFF) as u32,
        };
        check_table_log2(p.table_log2)?;
        Ok(p)
    }

    /// The table size in bytes.
    #[must_use]
    pub fn table_bytes(&self) -> u64 {
        1u64 << self.table_log2
    }

    /// The first `count` table offsets of SPE `spe`'s update stream, for
    /// `grain`-byte accesses. Offsets are multiples of
    /// `max(grain, 16)` — quadword-aligned on both the EA and (via the
    /// plan compiler's matching slot stride) the Local Store side, as
    /// sub-quadword DMA requires — and every access fits the table.
    ///
    /// # Errors
    ///
    /// [`StreamError::BadGrain`] unless `grain` is a power of two in
    /// 8..=128; [`StreamError::BadTableLog2`] if the table is
    /// out of range.
    pub fn offsets(&self, spe: u8, count: u64, grain: u32) -> Result<Vec<u64>, StreamError> {
        let stream = self.stream(spe, count, grain)?;
        Ok((0..count).map(|i| stream.offset(i)).collect())
    }

    /// [`GupsParams::offsets`] in closed form: the `i`-th offset is
    /// computed when asked for.
    ///
    /// # Errors
    ///
    /// As [`GupsParams::offsets`].
    pub fn stream(&self, spe: u8, count: u64, grain: u32) -> Result<OffsetStream, StreamError> {
        check_table_log2(self.table_log2)?;
        if !grain.is_power_of_two() || !(8..=128).contains(&grain) {
            return Err(StreamError::BadGrain(grain));
        }
        let stride = u64::from(grain.max(16));
        Ok(OffsetStream {
            seed: u64::from(self.seed),
            lane: u64::from(spe),
            len: count,
            slots: self.table_bytes() / stride,
            hot: None,
            stride,
        })
    }
}

// ---------------------------------------------------------------------------
// Stencil
// ---------------------------------------------------------------------------

/// Bytes per stencil grid cell. 16 B keeps every face element and row a
/// quadword multiple, so arbitrary face offsets stay DMA-legal.
pub const CELL_BYTES: u32 = 16;

/// Largest supported subgrid exponent per dimension (2^11 cells).
pub const MAX_SHAPE_LOG2: u8 = 11;

/// Parameters of one SPE's stencil subgrid: `2^rows_log2` rows of
/// `2^cols_log2` cells ([`CELL_BYTES`] each), stored row-major in the
/// owning SPE's memory region. Halo exchange reads face cells from
/// neighbor subgrids: east/west faces are row-strided DMA lists (one
/// `halo x CELL_BYTES` element per row), north/south faces are
/// contiguous row runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StencilParams {
    /// log2 of the subgrid rows.
    pub rows_log2: u8,
    /// log2 of the subgrid columns (cells per row).
    pub cols_log2: u8,
}

impl StencilParams {
    /// Packs into the `u64` run-key parameter word.
    #[must_use]
    pub fn pack(&self) -> u64 {
        (u64::from(self.rows_log2) << 8) | u64::from(self.cols_log2)
    }

    /// Unpacks and validates a parameter word.
    ///
    /// # Errors
    ///
    /// [`StreamError::BadPacked`] for stray bits,
    /// [`StreamError::BadShape`] for an out-of-range shape.
    pub fn unpack(packed: u64) -> Result<StencilParams, StreamError> {
        if packed >> 16 != 0 {
            return Err(StreamError::BadPacked(packed));
        }
        let p = StencilParams {
            rows_log2: ((packed >> 8) & 0xFF) as u8,
            cols_log2: (packed & 0xFF) as u8,
        };
        p.validate()?;
        Ok(p)
    }

    fn validate(&self) -> Result<(), StreamError> {
        // At least 2 cells per dimension (a face must leave an interior)
        // and a row must fit one DMA command.
        let ok = (1..=MAX_SHAPE_LOG2).contains(&self.rows_log2)
            && (1..=MAX_SHAPE_LOG2).contains(&self.cols_log2)
            && self.row_bytes() <= MAX_DMA_BYTES;
        if ok {
            Ok(())
        } else {
            Err(StreamError::BadShape {
                rows_log2: self.rows_log2,
                cols_log2: self.cols_log2,
            })
        }
    }

    /// Rows in the subgrid.
    #[must_use]
    pub fn rows(&self) -> u32 {
        1 << self.rows_log2
    }

    /// Cells per row.
    #[must_use]
    pub fn cols(&self) -> u32 {
        1 << self.cols_log2
    }

    /// Bytes per row.
    #[must_use]
    pub fn row_bytes(&self) -> u32 {
        self.cols() * CELL_BYTES
    }

    /// Total subgrid payload in bytes.
    #[must_use]
    pub fn interior_bytes(&self) -> u64 {
        u64::from(self.rows()) * u64::from(self.row_bytes())
    }

    /// Checks a halo width against this shape: nonzero, at most half of
    /// either dimension.
    ///
    /// # Errors
    ///
    /// [`StreamError::BadHalo`]; [`StreamError::BadShape`] if the shape
    /// itself is invalid.
    pub fn validate_halo(&self, halo: u32) -> Result<(), StreamError> {
        self.validate()?;
        if halo == 0 || halo > self.cols() / 2 || halo > self.rows() / 2 {
            return Err(StreamError::BadHalo { halo });
        }
        Ok(())
    }

    /// The west face: the first `halo` cells of every row — one
    /// row-strided list element per row.
    ///
    /// # Errors
    ///
    /// See [`StencilParams::validate_halo`].
    pub fn west_face(&self, halo: u32) -> Result<Vec<ListElement>, StreamError> {
        self.strided_face(halo, 0)
    }

    /// The east face: the last `halo` cells of every row.
    ///
    /// # Errors
    ///
    /// See [`StencilParams::validate_halo`].
    pub fn east_face(&self, halo: u32) -> Result<Vec<ListElement>, StreamError> {
        self.strided_face(halo, self.cols().saturating_sub(halo))
    }

    fn strided_face(&self, halo: u32, col: u32) -> Result<Vec<ListElement>, StreamError> {
        self.validate_halo(halo)?;
        let stride = u64::from(self.row_bytes());
        let bytes = halo * CELL_BYTES;
        Ok((0..self.rows())
            .map(|row| ListElement {
                ea_offset: u64::from(row) * stride + u64::from(col) * u64::from(CELL_BYTES),
                bytes,
            })
            .collect())
    }

    /// The north face: the first `halo` rows, one contiguous list
    /// element per row.
    ///
    /// # Errors
    ///
    /// See [`StencilParams::validate_halo`].
    pub fn north_face(&self, halo: u32) -> Result<Vec<ListElement>, StreamError> {
        self.contiguous_face(halo, 0)
    }

    /// The south face: the last `halo` rows.
    ///
    /// # Errors
    ///
    /// See [`StencilParams::validate_halo`].
    pub fn south_face(&self, halo: u32) -> Result<Vec<ListElement>, StreamError> {
        self.contiguous_face(halo, self.rows().saturating_sub(halo))
    }

    fn contiguous_face(&self, halo: u32, first_row: u32) -> Result<Vec<ListElement>, StreamError> {
        self.validate_halo(halo)?;
        let stride = u64::from(self.row_bytes());
        Ok((first_row..first_row + halo)
            .map(|row| ListElement {
                ea_offset: u64::from(row) * stride,
                bytes: self.row_bytes(),
            })
            .collect())
    }

    /// Total face bytes one SPE gathers per timestep (east + west
    /// strided faces plus north + south contiguous faces).
    ///
    /// # Errors
    ///
    /// See [`StencilParams::validate_halo`].
    pub fn halo_bytes(&self, halo: u32) -> Result<u64, StreamError> {
        self.validate_halo(halo)?;
        let ew = 2 * u64::from(self.rows()) * u64::from(halo * CELL_BYTES);
        let ns = 2 * u64::from(halo) * u64::from(self.row_bytes());
        Ok(ew + ns)
    }
}

// ---------------------------------------------------------------------------
// Pair list
// ---------------------------------------------------------------------------

/// Number of hot-set reuse draws out of every 4: 3 in 4 indices land in
/// the hot set — the skewed reuse of a biomolecular pair list, where a
/// few heavily-bonded particles appear in most pairs.
const HOT_DRAWS_IN_4: u64 = 3;

/// Parameters of a pair-list gather/scatter stream: indexed accesses
/// into a `2^table_log2`-byte particle table, skewed so most draws
/// revisit a `2^hot_log2`-entry hot set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairlistParams {
    /// log2 of the per-SPE particle-table size in bytes.
    pub table_log2: u8,
    /// log2 of the hot-set size in records.
    pub hot_log2: u8,
    /// Stream seed; each SPE derives an independent lane from it.
    pub seed: u32,
}

impl PairlistParams {
    /// Packs into the `u64` run-key parameter word.
    #[must_use]
    pub fn pack(&self) -> u64 {
        (u64::from(self.table_log2) << 40) | (u64::from(self.hot_log2) << 32) | u64::from(self.seed)
    }

    /// Unpacks and validates a parameter word.
    ///
    /// # Errors
    ///
    /// [`StreamError::BadPacked`] for stray bits,
    /// [`StreamError::BadTableLog2`] for an out-of-range table.
    pub fn unpack(packed: u64) -> Result<PairlistParams, StreamError> {
        if packed >> 48 != 0 {
            return Err(StreamError::BadPacked(packed));
        }
        let p = PairlistParams {
            table_log2: ((packed >> 40) & 0xFF) as u8,
            hot_log2: ((packed >> 32) & 0xFF) as u8,
            seed: (packed & 0xFFFF_FFFF) as u32,
        };
        check_table_log2(p.table_log2)?;
        if p.hot_log2 >= p.table_log2 {
            return Err(StreamError::BadPacked(packed));
        }
        Ok(p)
    }

    /// The table size in bytes.
    #[must_use]
    pub fn table_bytes(&self) -> u64 {
        1u64 << self.table_log2
    }

    /// The first `count` indexed list elements of SPE `spe`'s pair
    /// stream for `record_bytes`-sized particle records: each element
    /// addresses one whole record, three in four from the hot set.
    ///
    /// # Errors
    ///
    /// [`StreamError::BadRecord`] unless `record_bytes` is a
    /// power-of-two quadword multiple that fits one DMA command;
    /// [`StreamError::BadTableLog2`] if the table is out of range.
    pub fn elements(
        &self,
        spe: u8,
        count: u64,
        record_bytes: u32,
    ) -> Result<Vec<ListElement>, StreamError> {
        let stream = self.stream(spe, count, record_bytes)?;
        Ok((0..count)
            .map(|i| ListElement {
                ea_offset: stream.offset(i),
                bytes: record_bytes,
            })
            .collect())
    }

    /// The offsets of [`PairlistParams::elements`] in closed form: the
    /// `i`-th element's offset is computed when asked for.
    ///
    /// # Errors
    ///
    /// As [`PairlistParams::elements`].
    pub fn stream(
        &self,
        spe: u8,
        count: u64,
        record_bytes: u32,
    ) -> Result<OffsetStream, StreamError> {
        check_table_log2(self.table_log2)?;
        let valid = record_bytes.is_power_of_two()
            && (16..=MAX_DMA_BYTES).contains(&record_bytes)
            && u64::from(record_bytes) < self.table_bytes();
        if !valid {
            return Err(StreamError::BadRecord(record_bytes));
        }
        let slots = self.table_bytes() / u64::from(record_bytes);
        Ok(OffsetStream {
            seed: u64::from(self.seed),
            lane: u64::from(spe),
            len: count,
            slots,
            hot: Some((1u64 << self.hot_log2).min(slots)),
            stride: u64::from(record_bytes),
        })
    }
}

// ---------------------------------------------------------------------------
// Closed-form offset streams
// ---------------------------------------------------------------------------

/// One SPE's scattered table offsets, computed on demand: offset `i` is
/// a pure function of `draw(seed, spe, i)`, so a plan can hold the
/// stream instead of the offsets. Built by [`GupsParams::stream`] and
/// [`PairlistParams::stream`]; every offset is a multiple of a power of
/// two of at least 16 bytes, so it is quadword-aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffsetStream {
    seed: u64,
    lane: u64,
    len: u64,
    /// Table slots of `stride` bytes.
    slots: u64,
    /// Pair-list skew: three draws in four land in the first `hot`
    /// slots. `None` draws uniformly (GUPS).
    hot: Option<u64>,
    stride: u64,
}

impl OffsetStream {
    /// How many offsets the stream holds.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the stream holds no offsets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th offset (`i < len`).
    #[must_use]
    pub fn offset(&self, i: u64) -> u64 {
        let r = draw(self.seed, self.lane, i);
        let slot = match self.hot {
            None => r % self.slots,
            Some(hot) if r & 3 < HOT_DRAWS_IN_4 => (r >> 2) % hot,
            Some(_) => (r >> 2) % self.slots,
        };
        slot * self.stride
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gups_pack_round_trips_and_rejects_stray_bits() {
        let p = GupsParams {
            table_log2: 24,
            seed: 0xDEAD_BEEF,
        };
        assert_eq!(GupsParams::unpack(p.pack()), Ok(p));
        assert_eq!(
            GupsParams::unpack(1 << 41),
            Err(StreamError::BadPacked(1 << 41))
        );
        assert_eq!(
            GupsParams::unpack(u64::from(8u8) << 32),
            Err(StreamError::BadTableLog2(8))
        );
    }

    #[test]
    fn gups_offsets_are_aligned_in_range_and_deterministic() {
        let p = GupsParams {
            table_log2: 16,
            seed: 7,
        };
        for grain in [8u32, 16, 32, 64, 128] {
            let offs = p.offsets(3, 500, grain).unwrap();
            assert_eq!(offs.len(), 500);
            for &o in &offs {
                assert_eq!(o % u64::from(grain.max(16)), 0);
                assert!(o + u64::from(grain) <= p.table_bytes());
            }
            assert_eq!(offs, p.offsets(3, 500, grain).unwrap(), "pure function");
        }
        // Lanes are independent: two SPEs never share a stream.
        assert_ne!(p.offsets(0, 64, 8).unwrap(), p.offsets(1, 64, 8).unwrap());
        // Counter-based: a longer request extends, never reshuffles.
        let short = p.offsets(0, 10, 8).unwrap();
        let long = p.offsets(0, 20, 8).unwrap();
        assert_eq!(short[..], long[..10]);
    }

    #[test]
    fn gups_rejects_bad_grains() {
        let p = GupsParams {
            table_log2: 16,
            seed: 0,
        };
        for bad in [0u32, 4, 12, 256] {
            assert_eq!(p.offsets(0, 1, bad), Err(StreamError::BadGrain(bad)));
        }
    }

    #[test]
    fn stencil_faces_cover_the_expected_cells() {
        let p = StencilParams {
            rows_log2: 5,
            cols_log2: 6,
        }; // 32 x 64 cells
        assert_eq!(StencilParams::unpack(p.pack()), Ok(p));
        let west = p.west_face(2).unwrap();
        assert_eq!(west.len(), 32);
        assert_eq!(west[0].ea_offset, 0);
        assert_eq!(west[0].bytes, 32);
        assert_eq!(west[1].ea_offset, u64::from(p.row_bytes()));
        let east = p.east_face(2).unwrap();
        assert_eq!(east[0].ea_offset, u64::from((64 - 2) * CELL_BYTES));
        let north = p.north_face(2).unwrap();
        assert_eq!(north.len(), 2);
        assert_eq!(north[1].ea_offset, u64::from(p.row_bytes()));
        assert_eq!(north[1].bytes, p.row_bytes());
        let south = p.south_face(2).unwrap();
        assert_eq!(south[0].ea_offset, 30 * u64::from(p.row_bytes()));
        // All face offsets are quadword multiples: DMA-legal anywhere.
        for el in west.iter().chain(&east).chain(&north).chain(&south) {
            assert_eq!(el.ea_offset % 16, 0);
            assert_eq!(el.bytes % 16, 0);
        }
        let total: u64 = [&west, &east, &north, &south]
            .iter()
            .flat_map(|f| f.iter())
            .map(|e| u64::from(e.bytes))
            .sum();
        assert_eq!(total, p.halo_bytes(2).unwrap());
    }

    #[test]
    fn stencil_rejects_degenerate_halos_and_shapes() {
        let p = StencilParams {
            rows_log2: 5,
            cols_log2: 6,
        };
        assert_eq!(p.validate_halo(0), Err(StreamError::BadHalo { halo: 0 }));
        assert_eq!(p.validate_halo(33), Err(StreamError::BadHalo { halo: 33 }));
        assert!(StencilParams::unpack((12 << 8) | 6).is_err(), "rows 2^12");
        assert!(StencilParams::unpack(1 << 16).is_err(), "stray bits");
    }

    #[test]
    fn pairlist_pack_round_trips_and_skews_into_the_hot_set() {
        let p = PairlistParams {
            table_log2: 20,
            hot_log2: 8,
            seed: 42,
        };
        assert_eq!(PairlistParams::unpack(p.pack()), Ok(p));
        assert!(PairlistParams::unpack((8u64 << 40) | (9 << 32)).is_err());
        let els = p.elements(2, 4000, 32).unwrap();
        assert_eq!(els, p.elements(2, 4000, 32).unwrap(), "pure function");
        let hot_bytes = (1u64 << p.hot_log2) * 32;
        let hot = els.iter().filter(|e| e.ea_offset < hot_bytes).count();
        // 3-in-4 skew, with slack for uniform draws landing low.
        assert!(hot >= 2800, "skewed reuse expected, hot={hot}/4000");
        for e in &els {
            assert_eq!(e.ea_offset % 16, 0);
            assert!(e.ea_offset + u64::from(e.bytes) <= p.table_bytes());
        }
    }

    #[test]
    fn pairlist_rejects_bad_records() {
        let p = PairlistParams {
            table_log2: 16,
            hot_log2: 4,
            seed: 0,
        };
        for bad in [0u32, 8, 24, 32 * 1024] {
            assert_eq!(p.elements(0, 1, bad), Err(StreamError::BadRecord(bad)));
        }
    }
}
