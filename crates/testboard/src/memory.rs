//! Vector memories: the board's intermediate data storage.
//!
//! "The hardware test board consists of a control part and multiple memory
//! units for intermediate data storage of test vectors" (§3.3). One word is
//! a [`PinFrame`] (16 lanes × 8 bits); the stimulus memory feeds driving
//! lanes during a hardware activity cycle while the response memory records
//! sampling lanes. The memory depth bounds the supported test-cycle
//! duration window ("the current memory configuration supports test cycle
//! durations between 1 and 2^20 clock cycles" — the paper's exact numbers
//! are unreadable in the archival copy; 2^20 is used as the documented
//! substitution).

use crate::error::BoardError;
use crate::lane::LANES;
use crate::pinmap::PinFrame;

/// Default memory depth: supports test cycles up to 2^20 board clocks.
pub const DEFAULT_DEPTH: usize = 1 << 20;

/// A bank of per-clock pin frames.
#[derive(Debug, Clone)]
pub struct VectorMemory {
    words: Vec<PinFrame>,
    capacity: usize,
}

impl VectorMemory {
    /// Creates an empty memory of `capacity` words.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "memory capacity must be non-zero");
        VectorMemory {
            words: Vec::new(),
            capacity,
        }
    }

    /// Replaces the contents with a copy of `words`, reusing the buffer.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::MemoryOverflow`] when `words` exceeds capacity.
    pub fn load(&mut self, words: &[PinFrame]) -> Result<(), BoardError> {
        if words.len() > self.capacity {
            return Err(BoardError::MemoryOverflow {
                offered: words.len(),
                capacity: self.capacity,
            });
        }
        self.words.clear();
        self.words.extend_from_slice(words);
        Ok(())
    }

    /// Appends one word.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::MemoryOverflow`] when full.
    pub fn push(&mut self, word: PinFrame) -> Result<(), BoardError> {
        if self.words.len() >= self.capacity {
            return Err(BoardError::MemoryOverflow {
                offered: self.words.len() + 1,
                capacity: self.capacity,
            });
        }
        self.words.push(word);
        Ok(())
    }

    /// Word at index `i`, or an all-zero frame past the end (the board
    /// holds lines at their last programmed value; zero models the
    /// power-on default).
    #[must_use]
    pub fn word(&self, i: usize) -> PinFrame {
        self.words.get(i).copied().unwrap_or([0u8; LANES])
    }

    /// All stored words.
    #[must_use]
    pub fn words(&self) -> &[PinFrame] {
        &self.words
    }

    /// Number of stored words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` when nothing is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Configured capacity in words.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clears the contents, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_and_read_back() {
        let mut m = VectorMemory::new(4);
        let w: PinFrame = [7u8; LANES];
        m.load(&[w, w]).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.word(0), w);
        assert_eq!(m.word(5), [0u8; LANES], "past-end reads are zero frames");
    }

    #[test]
    fn capacity_enforced_on_load() {
        let mut m = VectorMemory::new(2);
        let err = m.load(&[[0; LANES]; 3]).unwrap_err();
        assert_eq!(
            err,
            BoardError::MemoryOverflow {
                offered: 3,
                capacity: 2
            }
        );
    }

    #[test]
    fn push_until_full() {
        let mut m = VectorMemory::new(2);
        m.push([1; LANES]).unwrap();
        m.push([2; LANES]).unwrap();
        assert!(m.push([3; LANES]).is_err());
        assert_eq!(m.words().len(), 2);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut m = VectorMemory::new(3);
        m.push([1; LANES]).unwrap();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.capacity(), 3);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = VectorMemory::new(0);
    }
}
