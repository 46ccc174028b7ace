use crate::SparseError;

/// A validated bijection on `0..len`, mapping **old** vertex/row IDs to
/// **new** IDs.
///
/// Every reordering technique in the workspace produces a `Permutation`;
/// applying it to a matrix with [`CsrMatrix::permute_symmetric`] relabels
/// rows *and* columns so vertex `v` of the original graph becomes vertex
/// `perm.new_of(v)` of the reordered graph.
///
/// [`CsrMatrix::permute_symmetric`]: crate::CsrMatrix::permute_symmetric
///
/// # Example
///
/// ```
/// use commorder_sparse::Permutation;
///
/// # fn main() -> Result<(), commorder_sparse::SparseError> {
/// let p = Permutation::from_new_ids(vec![2, 0, 1])?; // old 0 -> new 2, ...
/// assert_eq!(p.new_of(0), 2);
/// assert_eq!(p.old_of(2), 0);
/// assert_eq!(p.inverse().new_of(2), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Permutation {
    /// `new_ids[old] == new`.
    new_ids: Vec<u32>,
}

impl Permutation {
    /// The identity permutation on `0..len`.
    ///
    /// This is the paper's ORIGINAL ordering: IDs are left exactly as the
    /// dataset publisher assigned them.
    #[must_use]
    pub fn identity(len: usize) -> Self {
        Permutation {
            new_ids: (0..len as u32).collect(),
        }
    }

    /// Builds a permutation from a mapping `new_ids[old] = new`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidPermutation`] if the mapping is not a
    /// bijection on `0..new_ids.len()`, and [`SparseError::TooLarge`] if the
    /// length exceeds `u32::MAX`.
    pub fn from_new_ids(new_ids: Vec<u32>) -> Result<Self, SparseError> {
        if new_ids.len() > u32::MAX as usize {
            return Err(SparseError::TooLarge(format!(
                "permutation of length {} exceeds u32 indexing",
                new_ids.len()
            )));
        }
        let n = new_ids.len() as u32;
        let mut seen = vec![false; new_ids.len()];
        for (old, &new) in new_ids.iter().enumerate() {
            if new >= n {
                return Err(SparseError::InvalidPermutation {
                    index: old,
                    value: new,
                    message: format!("entry must be < length {n}"),
                });
            }
            if seen[new as usize] {
                return Err(SparseError::InvalidPermutation {
                    index: old,
                    value: new,
                    message: "target id appears more than once".to_string(),
                });
            }
            seen[new as usize] = true;
        }
        Ok(Permutation { new_ids })
    }

    /// Builds a permutation from the *rank order* `order`, where `order[k]`
    /// is the **old** ID that should receive **new** ID `k`.
    ///
    /// This is the natural output of "sort the vertices by X and assign IDs
    /// in that order" style reorderings (DEGSORT, RCM, GORDER, ...).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidPermutation`] if `order` is not a
    /// bijection on `0..order.len()`.
    pub fn from_order(order: &[u32]) -> Result<Self, SparseError> {
        if order.len() > u32::MAX as usize {
            return Err(SparseError::TooLarge(format!(
                "order of length {} exceeds u32 indexing",
                order.len()
            )));
        }
        let n = order.len() as u32;
        let mut new_ids = vec![u32::MAX; order.len()];
        for (new, &old) in order.iter().enumerate() {
            if old >= n {
                return Err(SparseError::InvalidPermutation {
                    index: new,
                    value: old,
                    message: format!("order entry must be < length {n}"),
                });
            }
            if new_ids[old as usize] != u32::MAX {
                return Err(SparseError::InvalidPermutation {
                    index: new,
                    value: old,
                    message: "old id appears more than once in order".to_string(),
                });
            }
            new_ids[old as usize] = new as u32;
        }
        Ok(Permutation { new_ids })
    }

    /// Number of elements the permutation acts on.
    #[must_use]
    pub fn len(&self) -> usize {
        self.new_ids.len()
    }

    /// `true` when the permutation acts on zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.new_ids.is_empty()
    }

    /// New ID assigned to `old`.
    ///
    /// # Panics
    ///
    /// Panics if `old as usize >= self.len()`.
    #[must_use]
    pub fn new_of(&self, old: u32) -> u32 {
        self.new_ids[old as usize]
    }

    /// Old ID that was assigned new ID `new` (linear in `len`; prefer
    /// [`Permutation::inverse`] for repeated queries).
    ///
    /// # Panics
    ///
    /// Panics if `new as usize >= self.len()`.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "the assert bounds new and a validated permutation is a bijection, so some old id maps to it"
    )]
    pub fn old_of(&self, new: u32) -> u32 {
        assert!(
            (new as usize) < self.new_ids.len(),
            "new id {new} out of range"
        );
        self.new_ids
            .iter()
            .position(|&x| x == new)
            .expect("validated permutation is a bijection") as u32
    }

    /// The inverse permutation (maps new IDs back to old IDs).
    #[must_use]
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0u32; self.new_ids.len()];
        for (old, &new) in self.new_ids.iter().enumerate() {
            crate::debug_validate!(
                (new as usize) < inv.len(),
                "inverse: entry {new} at {old} escapes 0..{}",
                inv.len()
            );
            inv[new as usize] = old as u32;
        }
        Permutation { new_ids: inv }
    }

    /// Composition: applies `self` first, then `then`, i.e.
    /// `result.new_of(v) == then.new_of(self.new_of(v))`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if the two permutations
    /// have different lengths.
    pub fn then(&self, then: &Permutation) -> Result<Permutation, SparseError> {
        if self.len() != then.len() {
            return Err(SparseError::DimensionMismatch {
                expected: format!("permutation of length {}", self.len()),
                found: format!("permutation of length {}", then.len()),
            });
        }
        let new_ids = self
            .new_ids
            .iter()
            .map(|&mid| then.new_ids[mid as usize])
            .collect();
        Ok(Permutation { new_ids })
    }

    /// `true` if this is the identity mapping.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.new_ids
            .iter()
            .enumerate()
            .all(|(old, &new)| old as u32 == new)
    }

    /// Read-only view of the `old -> new` mapping.
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        &self.new_ids
    }

    /// Consumes the permutation, returning the `old -> new` mapping.
    #[must_use]
    pub fn into_inner(self) -> Vec<u32> {
        self.new_ids
    }

    /// Applies the permutation to a data vector indexed by old IDs,
    /// producing the vector indexed by new IDs
    /// (`out[new_of(i)] = data[i]`).
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] if `data.len() != self.len()`.
    pub fn apply_to_vec<T: Clone + Default>(&self, data: &[T]) -> Result<Vec<T>, SparseError> {
        if data.len() != self.len() {
            return Err(SparseError::DimensionMismatch {
                expected: format!("data of length {}", self.len()),
                found: format!("data of length {}", data.len()),
            });
        }
        let mut out = vec![T::default(); data.len()];
        for (old, item) in data.iter().enumerate() {
            crate::debug_validate!(
                (self.new_ids[old] as usize) < out.len(),
                "apply_to_vec: target slot {} for old id {old} escapes 0..{}",
                self.new_ids[old],
                out.len()
            );
            out[self.new_ids[old] as usize] = item.clone();
        }
        Ok(out)
    }
}

impl Default for Permutation {
    fn default() -> Self {
        Permutation::identity(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_maps_to_self() {
        let p = Permutation::identity(5);
        assert!(p.is_identity());
        assert_eq!(p.len(), 5);
        for v in 0..5 {
            assert_eq!(p.new_of(v), v);
        }
    }

    #[test]
    fn from_new_ids_rejects_out_of_range() {
        let err = Permutation::from_new_ids(vec![0, 3]).unwrap_err();
        assert!(matches!(err, SparseError::InvalidPermutation { .. }));
    }

    #[test]
    fn from_new_ids_rejects_duplicates() {
        let err = Permutation::from_new_ids(vec![1, 1, 0]).unwrap_err();
        assert!(matches!(err, SparseError::InvalidPermutation { .. }));
    }

    #[test]
    fn from_order_inverts_semantics() {
        // order says: new id 0 goes to old vertex 2, etc.
        let p = Permutation::from_order(&[2, 0, 1]).unwrap();
        assert_eq!(p.new_of(2), 0);
        assert_eq!(p.new_of(0), 1);
        assert_eq!(p.new_of(1), 2);
    }

    #[test]
    fn from_order_rejects_duplicates() {
        assert!(Permutation::from_order(&[0, 0, 1]).is_err());
        assert!(Permutation::from_order(&[0, 5, 1]).is_err());
    }

    #[test]
    fn inverse_round_trips() {
        let p = Permutation::from_new_ids(vec![3, 1, 0, 2]).unwrap();
        let inv = p.inverse();
        for old in 0..4 {
            assert_eq!(inv.new_of(p.new_of(old)), old);
        }
        assert!(p.then(&inv).unwrap().is_identity());
    }

    #[test]
    fn old_of_matches_inverse() {
        let p = Permutation::from_new_ids(vec![3, 1, 0, 2]).unwrap();
        let inv = p.inverse();
        for new in 0..4 {
            assert_eq!(p.old_of(new), inv.new_of(new));
        }
    }

    #[test]
    fn composition_order_is_self_then_then() {
        let a = Permutation::from_new_ids(vec![1, 2, 0]).unwrap();
        let b = Permutation::from_new_ids(vec![2, 0, 1]).unwrap();
        let c = a.then(&b).unwrap();
        for v in 0..3 {
            assert_eq!(c.new_of(v), b.new_of(a.new_of(v)));
        }
    }

    #[test]
    fn composition_length_mismatch_errors() {
        let a = Permutation::identity(3);
        let b = Permutation::identity(4);
        assert!(a.then(&b).is_err());
    }

    #[test]
    fn apply_to_vec_moves_data_to_new_slots() {
        let p = Permutation::from_new_ids(vec![2, 0, 1]).unwrap();
        let out = p.apply_to_vec(&[10, 20, 30]).unwrap();
        // old 0 (value 10) moves to new slot 2.
        assert_eq!(out, vec![20, 30, 10]);
    }

    #[test]
    fn apply_to_vec_length_mismatch() {
        let p = Permutation::identity(3);
        assert!(p.apply_to_vec(&[1, 2]).is_err());
    }

    #[test]
    fn empty_permutation_is_fine() {
        let p = Permutation::identity(0);
        assert!(p.is_empty());
        assert!(p.is_identity());
        assert!(p.inverse().is_empty());
    }
}
