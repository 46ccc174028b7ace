//! Two matrix forms with identically named methods.

/// Compressed sparse rows.
pub struct Csr {
    /// Row pointer array, one past the last row.
    pub row_ptr: Vec<u32>,
}

impl Csr {
    /// Number of stored rows.
    pub fn width(&self) -> usize {
        self.row_ptr.len().saturating_sub(1)
    }
}

/// Coordinate-format triples.
pub struct Coo {
    /// One `(row, col)` pair per stored value.
    pub entries: Vec<(u32, u32)>,
}

impl Coo {
    /// Number of stored entries.
    pub fn width(&self) -> usize {
        self.entries.len()
    }
}

/// Anything with a width; `Csr` implements it with a same-named method.
pub trait Shape {
    /// Width under the trait's own definition.
    fn width(&self) -> usize;
}

impl Shape for Csr {
    /// Stored entries, not rows: never what an inherent-first call binds.
    fn width(&self) -> usize {
        self.row_ptr.last().copied().unwrap_or(0) as usize
    }
}
