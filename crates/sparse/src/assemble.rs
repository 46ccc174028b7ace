//! The one CSR assembler behind COO conversion and both undirected
//! pattern builders (see DESIGN.md §14, "CSR assembly and the mega tier").

use crate::SparseError;

/// A zero-filled buffer of `len` elements, or [`SparseError::TooLarge`]
/// when the allocator refuses it (a hostile header must not abort).
fn try_zeroed<T: Copy + Default>(len: usize, what: &str) -> Result<Vec<T>, SparseError> {
    let mut buf = Vec::new();
    buf.try_reserve_exact(len)
        .map_err(|_| SparseError::TooLarge(format!("cannot allocate {what} for {len} entries")))?;
    buf.resize(len, T::default());
    Ok(buf)
}

/// Row offsets plus the sorted, merged `(col, payload)` entries.
type Assembled<T> = (Vec<u32>, Vec<(u32, T)>);

/// Assembles an `n_rows x n_cols` matrix from `replay`, which is called
/// twice and must emit the same `(row, col, payload)` sequence both
/// times. Pass one counts entries per row, pass two scatters them through
/// per-row cursors, then each row is sorted by column — stably, so equal
/// columns keep their input order — and duplicates are folded left to
/// right with `merge` while the array is compacted in place. A pattern
/// payload `()` adds no bytes.
///
/// # Errors
///
/// [`SparseError::IndexOutOfBounds`] for the first entry outside the
/// matrix; [`SparseError::TooLarge`] when the entry count exceeds `u32`
/// offsets or a buffer cannot be allocated.
pub(crate) fn assemble<T: Copy + Default>(
    n_rows: u32,
    n_cols: u32,
    replay: impl Fn(&mut dyn FnMut(u32, u32, T)),
    merge: impl Fn(&mut T, T),
) -> Result<Assembled<T>, SparseError> {
    // Pass 1: row r's count lands in offsets[r + 1].
    let mut offsets: Vec<u32> = try_zeroed(n_rows as usize + 1, "row offsets")?;
    let mut total = 0u64;
    let mut bad = None;
    replay(&mut |r, c, _| {
        if r >= n_rows || c >= n_cols {
            let (index, bound) = if r >= n_rows {
                (r, n_rows)
            } else {
                (c, n_cols)
            };
            bad.get_or_insert(SparseError::IndexOutOfBounds { index, bound });
        } else {
            offsets[r as usize + 1] = offsets[r as usize + 1].wrapping_add(1);
            total += 1;
        }
    });
    bad.map_or(Ok(()), Err)?;
    let total = u32::try_from(total)
        .map_err(|_| SparseError::TooLarge(format!("{total} entries exceed u32 offsets")))?;

    // Shifted exclusive prefix sum: offsets[r + 1] becomes row r's start
    // and serves as its fill cursor, so after the scatter it holds row
    // r's end — the final offset — with no second array.
    let mut acc = 0u32;
    for cursor in &mut offsets[1..] {
        let count = *cursor;
        *cursor = acc;
        acc += count;
    }

    // Pass 2: scatter through the cursors.
    let mut entries: Vec<(u32, T)> = try_zeroed(total as usize, "entries")?;
    replay(&mut |r, c, payload| {
        let cursor = &mut offsets[r as usize + 1];
        entries[*cursor as usize] = (c, payload);
        *cursor += 1;
    });

    // Per-row sort + merge, compacting in place. The write cursor never
    // passes the read cursor: every earlier row shrank or stayed put.
    let (mut write, mut start) = (0usize, 0usize);
    for offset in &mut offsets[1..] {
        let (end, row_begin) = (*offset as usize, write);
        entries[start..end].sort_by_key(|&(c, _)| c);
        for read in start..end {
            let (c, payload) = entries[read];
            if write > row_begin && entries[write - 1].0 == c {
                merge(&mut entries[write - 1].1, payload);
            } else {
                entries[write] = (c, payload);
                write += 1;
            }
        }
        *offset = write as u32;
        start = end;
    }
    entries.truncate(write);
    entries.shrink_to_fit();
    Ok((offsets, entries))
}
