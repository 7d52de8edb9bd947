//! The on-disk shard store — `ShardedCsr`'s layout, serialized.
//!
//! A [`ShardFile`] holds one graph as a sequence of u32 CSR shard
//! blocks, each exactly the block [`crate::ShardedCsr`] would hold in
//! memory: local row pointers, **global** column indices, values. The
//! row-range partition is recorded in a checksummed directory, so a
//! reader can page any single shard in without touching the others —
//! the access unit of the out-of-core engine ([`crate::PagedCsr`]).
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! magic        8 B   "LSBPSHF1"
//! version      4 B   u32, currently 2
//! n_rows       8 B   u64
//! n_cols       8 B   u64
//! nnz          8 B   u64
//! n_shards     8 B   u64
//! directory    n_shards × 48 B:
//!     row_start u64 · row_end u64 · nnz u64 ·
//!     byte_off u64 · byte_len u64 · block_checksum u64
//! header_checksum  8 B   checksum over everything above
//! blocks       back to back at their directory offsets:
//!     row_ptr  (rows+1) × u64   (local, row_ptr[0] == 0)
//!     col_idx  nnz × u32        (global columns)
//!     values   nnz × u64        (f64 bit patterns)
//! ```
//!
//! **Checksum (version 2).** Header and blocks use one dependency-free,
//! word-wise checksum: four independent xxHash64-style lanes, each
//! folding every fourth 8-byte little-endian word with
//! `acc = (acc + w·P2).rotate_left(31)·P1` (32 bytes per stripe), then
//! the lanes folded together, the word and byte tail and the length
//! mixed in, and a final avalanche. Each round is a bijection in its
//! word, so any single changed word — every single-bit flip — is
//! detected with certainty. Version 1 files (byte-serial FNV-1a) are
//! rejected as [`ShardFileError::UnsupportedVersion`]; spill files are
//! per-process scratch, so no version 1 reader is kept.
//!
//! Values travel as raw `f64::to_bits` patterns — a round trip is
//! bit-exact, which is what lets the paged backend promise bitwise
//! equality with the resident solve.
//!
//! Every failure mode is a typed [`ShardFileError`], never a panic:
//! truncation is caught structurally (`open` checks that every
//! directory extent fits the file), bit rot by the per-block and header
//! checksums.

use crate::csr::CsrMatrix;
use crate::operator::PropagationOperator;
use crate::sharded::{ShardSource, ShardedCsr};
use std::fs::File;
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// File magic: "LSBPSHF1".
pub const SHARD_FILE_MAGIC: [u8; 8] = *b"LSBPSHF1";

/// Current format version.
pub const SHARD_FILE_VERSION: u32 = 2;

/// Bytes per directory entry (6 × u64).
const DIR_ENTRY_LEN: usize = 48;

/// Fixed header length before the directory.
const FIXED_HEADER_LEN: usize = 8 + 4 + 8 * 4;

/// Errors surfaced by the shard store. Every corruption/truncation mode
/// is a typed variant — callers decide whether to fail the request,
/// refetch, or fall back to a resident solve.
#[derive(Debug)]
pub enum ShardFileError {
    /// Underlying I/O failure (open, read, write, flush).
    Io(std::io::Error),
    /// The file does not start with the shard-store magic.
    BadMagic,
    /// The file's format version is newer than this reader.
    UnsupportedVersion(u32),
    /// The file ends before the named section's recorded extent.
    Truncated(&'static str),
    /// A structural invariant does not hold (non-monotone row pointers,
    /// column beyond `n_cols`, overlapping extents, …).
    Corrupt(String),
    /// Stored bytes do not match their recorded checksum.
    ChecksumMismatch(String),
}

impl std::fmt::Display for ShardFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardFileError::Io(e) => write!(f, "shard file I/O error: {e}"),
            ShardFileError::BadMagic => write!(f, "not a shard file (bad magic)"),
            ShardFileError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported shard file version {v} (reader supports {SHARD_FILE_VERSION})"
                )
            }
            ShardFileError::Truncated(what) => write!(f, "shard file truncated in {what}"),
            ShardFileError::Corrupt(what) => write!(f, "shard file corrupt: {what}"),
            ShardFileError::ChecksumMismatch(what) => {
                write!(f, "shard file checksum mismatch in {what}")
            }
        }
    }
}

impl std::error::Error for ShardFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ShardFileError {
    fn from(e: std::io::Error) -> Self {
        ShardFileError::Io(e)
    }
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One xxHash64-style round. For a fixed `acc` it is a bijection in `w`
/// (odd multiplies, an add and a rotation), and for a fixed `w` a
/// bijection in `acc`.
#[inline(always)]
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().unwrap())
}

/// The store's checksum: four independent lanes of [`round`] over 8-byte
/// little-endian words, 32 bytes per stripe, folded by rotate-and-add,
/// then the word and byte tail, the length, and a final avalanche.
/// Dependency-free and word-wise (the lanes run in parallel, unlike a
/// byte-serial hash), and plenty for catching the torn writes and bit
/// rot a pager must detect — not a cryptographic integrity guarantee.
///
/// Every step after a word enters is a bijection of the running state,
/// so for a fixed length any single changed word — in particular any
/// single flipped bit — changes the checksum with certainty.
fn block_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = round(*lane, le_word(w));
        }
    }
    let mut h = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18));
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, le_word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h = h.wrapping_add(bytes.len() as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// One shard's directory entry: its global row range, entry count, and
/// where its block lives in the file.
#[derive(Clone, Debug)]
pub struct ShardMeta {
    /// Global row range the shard covers.
    pub rows: Range<usize>,
    /// Stored entries in the shard.
    pub nnz: usize,
    /// Byte offset of the shard block in the file.
    pub byte_off: u64,
    /// Byte length of the shard block.
    pub byte_len: u64,
    /// Word-wise checksum of the block bytes (see the module docs).
    pub checksum: u64,
}

impl ShardMeta {
    /// Approximate in-memory footprint of the deserialized block —
    /// what the buffer pool charges against its byte budget.
    pub fn resident_bytes(&self) -> usize {
        block_resident_bytes(self.rows.end - self.rows.start, self.nnz)
    }
}

/// In-memory footprint of a CSR block with `rows` rows and `nnz` entries
/// (row pointers, `u32` columns, `f64` values) — the pool's byte measure.
pub(crate) fn block_resident_bytes(rows: usize, nnz: usize) -> usize {
    (rows + 1) * std::mem::size_of::<usize>()
        + nnz * (std::mem::size_of::<u32>() + std::mem::size_of::<f64>())
}

/// An opened (validated, not yet loaded) shard store — the directory
/// lives in memory, the blocks stay on disk until
/// [`ShardFile::read_shard`] pages them in.
#[derive(Debug)]
pub struct ShardFile {
    path: PathBuf,
    file: File,
    n_rows: usize,
    n_cols: usize,
    nnz: usize,
    shards: Vec<ShardMeta>,
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn read_u64(bytes: &[u8], off: &mut usize) -> u64 {
    let v = u64::from_le_bytes(bytes[*off..*off + 8].try_into().unwrap());
    *off += 8;
    v
}

fn to_usize(v: u64, what: &'static str) -> Result<usize, ShardFileError> {
    usize::try_from(v).map_err(|_| ShardFileError::Corrupt(format!("{what} {v} exceeds usize")))
}

impl ShardFile {
    /// Serializes a sharded matrix to `path` (atomically enough for our
    /// use: written to the final name in one pass, flushed before
    /// returning). Existing files are truncated.
    pub fn write(path: impl AsRef<Path>, sharded: &ShardedCsr) -> Result<(), ShardFileError> {
        let path = path.as_ref();
        let n_shards = sharded.num_shards();

        // Serialize every block first so the directory can record exact
        // offsets and checksums.
        let mut blocks: Vec<Vec<u8>> = Vec::with_capacity(n_shards);
        for i in 0..n_shards {
            let shard = sharded.shard(i);
            let mut buf = Vec::with_capacity(8 * (shard.n_rows() + 1) + 12 * shard.nnz());
            for &p in shard.row_offsets() {
                push_u64(&mut buf, p as u64);
            }
            for &c in shard.raw_col_idx() {
                buf.extend_from_slice(&c.to_le_bytes());
            }
            for &v in shard.raw_values() {
                push_u64(&mut buf, v.to_bits());
            }
            blocks.push(buf);
        }

        let header_len = FIXED_HEADER_LEN + n_shards * DIR_ENTRY_LEN + 8;
        let mut header = Vec::with_capacity(header_len);
        header.extend_from_slice(&SHARD_FILE_MAGIC);
        header.extend_from_slice(&SHARD_FILE_VERSION.to_le_bytes());
        push_u64(&mut header, sharded.n_rows() as u64);
        push_u64(&mut header, sharded.n_cols() as u64);
        push_u64(&mut header, sharded.nnz() as u64);
        push_u64(&mut header, n_shards as u64);
        let mut off = header_len as u64;
        for (i, block) in blocks.iter().enumerate() {
            let rows = sharded.shard_rows(i);
            push_u64(&mut header, rows.start as u64);
            push_u64(&mut header, rows.end as u64);
            push_u64(&mut header, sharded.shard(i).nnz() as u64);
            push_u64(&mut header, off);
            push_u64(&mut header, block.len() as u64);
            push_u64(&mut header, block_checksum(block));
            off += block.len() as u64;
        }
        let header_checksum = block_checksum(&header);
        push_u64(&mut header, header_checksum);
        debug_assert_eq!(header.len(), header_len);

        let mut file = File::create(path)?;
        file.write_all(&header)?;
        for block in &blocks {
            file.write_all(block)?;
        }
        file.sync_all()?;
        Ok(())
    }

    /// Shards `m` into `shards` nnz-balanced row ranges and serializes
    /// the result — the one-call spill path.
    pub fn write_csr(
        path: impl AsRef<Path>,
        m: &CsrMatrix,
        shards: usize,
    ) -> Result<(), ShardFileError> {
        Self::write(path, &ShardedCsr::from_csr(m, shards))
    }

    /// Opens and validates a shard store: magic, version, header
    /// checksum, and the structural envelope (directory entries tile
    /// the rows, extents fit the file). Block *contents* are verified
    /// against their checksums at [`ShardFile::read_shard`] time — an
    /// open stays O(header), never O(file).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ShardFileError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let file_len = file.metadata()?.len();

        let mut fixed = [0u8; FIXED_HEADER_LEN];
        if file_len < FIXED_HEADER_LEN as u64 {
            return Err(ShardFileError::Truncated("fixed header"));
        }
        file.read_exact(&mut fixed)?;
        if fixed[..8] != SHARD_FILE_MAGIC {
            return Err(ShardFileError::BadMagic);
        }
        let version = u32::from_le_bytes(fixed[8..12].try_into().unwrap());
        if version != SHARD_FILE_VERSION {
            return Err(ShardFileError::UnsupportedVersion(version));
        }
        let mut off = 12;
        let n_rows = to_usize(read_u64(&fixed, &mut off), "n_rows")?;
        let n_cols = to_usize(read_u64(&fixed, &mut off), "n_cols")?;
        let nnz = to_usize(read_u64(&fixed, &mut off), "nnz")?;
        let n_shards = to_usize(read_u64(&fixed, &mut off), "n_shards")?;
        // A directory entry is 48 bytes; cap n_shards by what the file
        // could possibly hold before allocating for it.
        let max_shards = (file_len / DIR_ENTRY_LEN as u64).min(u32::MAX as u64) as usize;
        if n_shards > max_shards {
            return Err(ShardFileError::Corrupt(format!(
                "directory claims {n_shards} shards in a {file_len}-byte file"
            )));
        }

        let dir_len = n_shards * DIR_ENTRY_LEN;
        let header_len = FIXED_HEADER_LEN + dir_len + 8;
        if file_len < header_len as u64 {
            return Err(ShardFileError::Truncated("shard directory"));
        }
        let mut dir = vec![0u8; dir_len + 8];
        file.read_exact(&mut dir)?;
        let stored_checksum = u64::from_le_bytes(dir[dir_len..dir_len + 8].try_into().unwrap());
        let mut whole = Vec::with_capacity(FIXED_HEADER_LEN + dir_len);
        whole.extend_from_slice(&fixed);
        whole.extend_from_slice(&dir[..dir_len]);
        if block_checksum(&whole) != stored_checksum {
            return Err(ShardFileError::ChecksumMismatch("header".into()));
        }

        let mut shards = Vec::with_capacity(n_shards);
        let mut off = 0usize;
        let mut expect_row = 0usize;
        let mut expect_off = header_len as u64;
        let mut total_nnz = 0usize;
        for i in 0..n_shards {
            let row_start = to_usize(read_u64(&dir, &mut off), "row_start")?;
            let row_end = to_usize(read_u64(&dir, &mut off), "row_end")?;
            let shard_nnz = to_usize(read_u64(&dir, &mut off), "shard nnz")?;
            let byte_off = read_u64(&dir, &mut off);
            let byte_len = read_u64(&dir, &mut off);
            let checksum = read_u64(&dir, &mut off);
            if row_start != expect_row || row_end < row_start || row_end > n_rows {
                return Err(ShardFileError::Corrupt(format!(
                    "shard {i} rows {row_start}..{row_end} do not tile 0..{n_rows}"
                )));
            }
            let expect_len = 8 * (row_end - row_start + 1) as u64 + 12 * shard_nnz as u64;
            if byte_len != expect_len {
                return Err(ShardFileError::Corrupt(format!(
                    "shard {i} block length {byte_len} != expected {expect_len}"
                )));
            }
            if byte_off != expect_off {
                return Err(ShardFileError::Corrupt(format!(
                    "shard {i} block offset {byte_off} != expected {expect_off}"
                )));
            }
            if byte_off
                .checked_add(byte_len)
                .is_none_or(|end| end > file_len)
            {
                return Err(ShardFileError::Truncated("shard block"));
            }
            expect_row = row_end;
            expect_off = byte_off + byte_len;
            total_nnz += shard_nnz;
            shards.push(ShardMeta {
                rows: row_start..row_end,
                nnz: shard_nnz,
                byte_off,
                byte_len,
                checksum,
            });
        }
        if expect_row != n_rows {
            return Err(ShardFileError::Corrupt(format!(
                "directory covers rows 0..{expect_row}, file claims {n_rows}"
            )));
        }
        if total_nnz != nnz {
            return Err(ShardFileError::Corrupt(format!(
                "directory nnz sum {total_nnz} != header nnz {nnz}"
            )));
        }

        Ok(Self {
            path,
            file,
            n_rows,
            n_cols,
            nnz,
            shards,
        })
    }

    /// The path this store was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of rows of the stored matrix.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns of the stored matrix.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries of the stored matrix.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Directory entry of shard `i`.
    pub fn shard_meta(&self, i: usize) -> &ShardMeta {
        &self.shards[i]
    }

    /// The shard row boundaries in `ShardedCsr::starts` form:
    /// `starts[i]..starts[i+1]` is shard `i`'s global row range.
    pub fn starts(&self) -> Vec<usize> {
        let mut starts = Vec::with_capacity(self.shards.len() + 1);
        starts.push(0);
        starts.extend(self.shards.iter().map(|s| s.rows.end));
        starts
    }

    /// Reads the raw bytes of shard `i` at its recorded extent —
    /// position-independent (`pread`-style), so concurrent reads from
    /// the prefetch thread and demand loads never race on a seek
    /// cursor.
    fn read_block_bytes(&self, i: usize) -> Result<Vec<u8>, ShardFileError> {
        let meta = &self.shards[i];
        let mut buf = vec![0u8; meta.byte_len as usize];
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file
                .read_exact_at(&mut buf, meta.byte_off)
                .map_err(|e| {
                    if e.kind() == std::io::ErrorKind::UnexpectedEof {
                        ShardFileError::Truncated("shard block")
                    } else {
                        ShardFileError::Io(e)
                    }
                })?;
        }
        #[cfg(not(unix))]
        {
            // Portable fallback: a fresh handle per read keeps the main
            // handle's cursor untouched.
            use std::io::{Seek, SeekFrom};
            let mut f = File::open(&self.path)?;
            f.seek(SeekFrom::Start(meta.byte_off))?;
            f.read_exact(&mut buf).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    ShardFileError::Truncated("shard block")
                } else {
                    ShardFileError::Io(e)
                }
            })?;
        }
        Ok(buf)
    }

    /// Pages shard `i` in: reads its block, verifies the checksum, and
    /// deserializes it into exactly the `CsrMatrix` block
    /// [`ShardedCsr`] holds resident — same local row pointers, same
    /// global columns, bit-identical values — so every kernel that runs
    /// on it produces bitwise the monolithic result.
    pub fn read_shard(&self, i: usize) -> Result<CsrMatrix, ShardFileError> {
        let meta = &self.shards[i];
        let bytes = self.read_block_bytes(i)?;
        if block_checksum(&bytes) != meta.checksum {
            return Err(ShardFileError::ChecksumMismatch(format!("shard {i} block")));
        }
        let rows = meta.rows.end - meta.rows.start;
        // The directory pinned `byte_len` to exactly these three ranges.
        let (ptr_bytes, rest) = bytes.split_at(8 * (rows + 1));
        let (col_bytes, val_bytes) = rest.split_at(4 * meta.nnz);
        let row_ptr = ptr_bytes
            .chunks_exact(8)
            .map(|w| to_usize(le_word(w), "row pointer"))
            .collect::<Result<Vec<usize>, _>>()?;
        if row_ptr[0] != 0 || row_ptr[rows] != meta.nnz || row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(ShardFileError::Corrupt(format!(
                "shard {i} row pointers are not a monotone prefix of 0..{}",
                meta.nnz
            )));
        }
        let col_idx: Vec<u32> = col_bytes
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
            .collect();
        if let Some(&c) = col_idx.iter().find(|&&c| c as usize >= self.n_cols) {
            return Err(ShardFileError::Corrupt(format!(
                "shard {i} column {c} beyond n_cols {}",
                self.n_cols
            )));
        }
        let values: Vec<f64> = val_bytes
            .chunks_exact(8)
            .map(|w| f64::from_bits(le_word(w)))
            .collect();
        Ok(CsrMatrix::from_trusted_parts(
            rows,
            self.n_cols,
            row_ptr,
            col_idx,
            values,
        ))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sample() -> CsrMatrix {
        let mut coo = CooMatrix::new(9, 9);
        coo.push_symmetric(0, 1, 2.0);
        coo.push_symmetric(0, 2, 1.0);
        coo.push_symmetric(1, 4, 3.5);
        coo.push_symmetric(2, 4, 1.5);
        coo.push_symmetric(4, 5, 0.25);
        coo.push_symmetric(6, 8, -1.75);
        coo.push(7, 7, 0.125);
        coo.to_csr()
    }

    /// A scratch path `name` in a directory of its own, removed with
    /// everything in it when the guard drops — whether the test passed or
    /// panicked. The directory, `lsbp-<prefix>-<pid>-<n>` under the temp
    /// dir, carries the process id and a per-process counter, so parallel
    /// tests never share or delete each other's files. Derefs to the path.
    pub(crate) struct TempPath {
        dir: PathBuf,
        path: PathBuf,
    }

    impl TempPath {
        pub(crate) fn new(prefix: &str, name: &str) -> Self {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("lsbp-{prefix}-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(name);
            Self { dir, path }
        }
    }

    impl std::ops::Deref for TempPath {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.path
        }
    }

    impl AsRef<Path> for TempPath {
        fn as_ref(&self) -> &Path {
            &self.path
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn tmp(name: &str) -> TempPath {
        TempPath::new("shardfile", name)
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let m = sample();
        for shards in [1usize, 2, 3, 9, 20] {
            let path = tmp(&format!("roundtrip-{shards}.lsbp"));
            ShardFile::write_csr(&path, &m, shards).unwrap();
            let f = ShardFile::open(&path).unwrap();
            assert_eq!(f.n_rows(), 9);
            assert_eq!(f.n_cols(), 9);
            assert_eq!(f.nnz(), m.nnz());
            let want = ShardedCsr::from_csr(&m, shards);
            assert_eq!(f.num_shards(), want.num_shards(), "{shards} shards");
            for i in 0..f.num_shards() {
                assert_eq!(f.shard_meta(i).rows, want.shard_rows(i));
                let block = f.read_shard(i).unwrap();
                assert_eq!(block, *want.shard(i), "shard {i} of {shards}");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn empty_matrix_roundtrips() {
        let m = CsrMatrix::empty(0, 0);
        let path = tmp("empty.lsbp");
        ShardFile::write_csr(&path, &m, 4).unwrap();
        let f = ShardFile::open(&path).unwrap();
        assert_eq!(f.n_rows(), 0);
        assert_eq!(f.num_shards(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_typed() {
        let path = tmp("badmagic.lsbp");
        std::fs::write(&path, b"NOTASHRDxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx").unwrap();
        assert!(matches!(
            ShardFile::open(&path),
            Err(ShardFileError::BadMagic)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let m = sample();
        let path = tmp("truncated.lsbp");
        ShardFile::write_csr(&path, &m, 3).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Chop the file at a range of lengths: every prefix must fail
        // with a typed error, never panic, never "succeed".
        for keep in [0, 4, 11, 40, FIXED_HEADER_LEN, full.len() - 1] {
            std::fs::write(&path, &full[..keep]).unwrap();
            match ShardFile::open(&path) {
                Err(_) => {}
                Ok(f) => {
                    // Header may survive the chop; the blocks must not.
                    let mut any_err = false;
                    for i in 0..f.num_shards() {
                        any_err |= f.read_shard(i).is_err();
                    }
                    assert!(any_err, "keep={keep}: truncation must surface somewhere");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flips_fail_checksums() {
        let m = sample();
        let path = tmp("bitflip.lsbp");
        ShardFile::write_csr(&path, &m, 2).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip one byte in the header (after magic/version) → header
        // checksum mismatch or structural corruption.
        let mut dirty = clean.clone();
        dirty[14] ^= 0x40;
        std::fs::write(&path, &dirty).unwrap();
        assert!(ShardFile::open(&path).is_err());
        // Flip one byte in the last block → that shard fails its
        // checksum; the file still opens and other shards still read.
        let mut dirty = clean.clone();
        let last = dirty.len() - 1;
        dirty[last] ^= 0x01;
        std::fs::write(&path, &dirty).unwrap();
        let f = ShardFile::open(&path).unwrap();
        assert!(f.read_shard(0).is_ok());
        assert!(matches!(
            f.read_shard(1),
            Err(ShardFileError::ChecksumMismatch(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_single_bit_flip_in_a_block_is_caught() {
        let m = sample();
        let path = tmp("everybit.lsbp");
        ShardFile::write_csr(&path, &m, 3).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let meta = ShardFile::open(&path).unwrap().shard_meta(1).clone();
        let block = meta.byte_off as usize..(meta.byte_off + meta.byte_len) as usize;
        // A length that is not a multiple of the 32-byte stripe, so the
        // word tail is covered too.
        assert_ne!(block.len() % 32, 0, "{} bytes", block.len());
        for byte in block {
            for bit in 0..8 {
                let mut dirty = clean.clone();
                dirty[byte] ^= 1 << bit;
                std::fs::write(&path, &dirty).unwrap();
                let f = ShardFile::open(&path).unwrap();
                assert!(
                    matches!(f.read_shard(1), Err(ShardFileError::ChecksumMismatch(_))),
                    "byte {byte} bit {bit}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_sees_every_bit_of_the_byte_tail() {
        let bytes: Vec<u8> = (0..77u8).map(|b| b.wrapping_mul(37)).collect();
        let clean = block_checksum(&bytes);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut dirty = bytes.clone();
                dirty[byte] ^= 1 << bit;
                assert_ne!(block_checksum(&dirty), clean, "byte {byte} bit {bit}");
            }
        }
        assert_ne!(block_checksum(&bytes[..76]), clean, "length is mixed in");
    }

    #[test]
    fn unsupported_version_is_typed() {
        let m = sample();
        let path = tmp("version.lsbp");
        ShardFile::write_csr(&path, &m, 1).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let header_len = clean.len() - {
            let f = ShardFile::open(&path).unwrap();
            (0..f.num_shards())
                .map(|i| f.shard_meta(i).byte_len as usize)
                .sum::<usize>()
        };
        // Version 1 (the retired FNV-1a format) and a future version are
        // both refused by number.
        for version in [1u32, 99] {
            let mut bytes = clean.clone();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            // Re-stamp the header checksum so only the version differs.
            let checksum = block_checksum(&bytes[..header_len - 8]);
            let at = header_len - 8;
            bytes[at..at + 8].copy_from_slice(&checksum.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                ShardFile::open(&path),
                Err(ShardFileError::UnsupportedVersion(v)) if v == version
            ));
        }
        std::fs::remove_file(&path).ok();
    }
}
