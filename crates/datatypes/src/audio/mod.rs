//! The audio data type (paper §5.2): speaker-independent speech similarity.
//!
//! Pipeline: PCM → utterance segmentation (20 ms windows, RMS energy and
//! zero crossings) → word segmentation within an utterance → per-word
//! 192-d feature vectors (32 sliding 512-sample windows × 6 MFCC
//! coefficients), weight ∝ word length. The paper used TIMIT's hand-marked
//! word boundaries; we substitute a silence-gap word splitter over
//! synthesized sentences (DESIGN.md documents the substitution).

pub mod dsp;
pub mod synth;

use std::ops::Range;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use ferret_core::error::{CoreError, Result};
use ferret_core::object::{DataObject, ObjectId};
use ferret_core::plugin::Extractor;
use ferret_core::sketch::SketchParams;
use ferret_core::vector::FeatureVector;

use crate::common::Dataset;
use dsp::{mfcc_frame, rms_energy, zero_crossings, MelFilterBank};
use synth::{render_sentence, Speaker, Vocabulary, WordTemplate, SAMPLE_RATE};

/// Dimensionality of the audio segment features: 32 windows × 6 MFCCs.
pub const AUDIO_DIM: usize = 192;

/// Analysis window for the boundary detector: 20 ms.
pub const BOUNDARY_WINDOW: usize = SAMPLE_RATE / 50;

/// Parameters of the energy/zero-crossing boundary detector (paper §5.2).
#[derive(Debug, Clone, Copy)]
pub struct SegmenterConfig {
    /// RMS energy below which a 20 ms window counts as silent.
    pub energy_threshold: f64,
    /// Zero crossings above which a low-energy window is treated as an
    /// unvoiced consonant rather than silence.
    pub zcr_threshold: usize,
    /// Consecutive silent windows that constitute a boundary (the paper
    /// uses ten for utterances; word gaps are shorter).
    pub min_gap_windows: usize,
}

impl SegmenterConfig {
    /// Utterance-level boundaries: "ten or more windows with RMS energy
    /// below a certain threshold" (§5.2).
    #[cfg(test)]
    fn utterance() -> Self {
        Self {
            energy_threshold: 0.01,
            zcr_threshold: 90,
            min_gap_windows: 10,
        }
    }

    /// Word-level boundaries within an utterance (shorter gaps).
    pub fn word() -> Self {
        Self {
            energy_threshold: 0.01,
            zcr_threshold: 90,
            min_gap_windows: 2,
        }
    }
}

/// Splits PCM into active segments separated by silence runs.
///
/// A 20 ms window is silent if its RMS energy is below the threshold and it
/// does not look like an unvoiced consonant (many zero crossings). Runs of
/// at least `min_gap_windows` silent windows separate segments.
pub fn split_segments(pcm: &[f32], cfg: &SegmenterConfig) -> Vec<Range<usize>> {
    let w = BOUNDARY_WINDOW;
    if pcm.is_empty() {
        return Vec::new();
    }
    let num_windows = pcm.len().div_ceil(w);
    let silent: Vec<bool> = (0..num_windows)
        .map(|i| {
            let win = &pcm[i * w..((i + 1) * w).min(pcm.len())];
            rms_energy(win) < cfg.energy_threshold && zero_crossings(win) < cfg.zcr_threshold
        })
        .collect();
    let mut segments = Vec::new();
    let mut start: Option<usize> = None;
    let mut gap = 0usize;
    for (i, &s) in silent.iter().enumerate() {
        if s {
            gap += 1;
            if gap == cfg.min_gap_windows {
                // Close the current segment at the start of the gap.
                if let Some(st) = start.take() {
                    let end = (i + 1 - gap) * w;
                    if end > st {
                        segments.push(st..end.min(pcm.len()));
                    }
                }
            }
        } else {
            if start.is_none() {
                start = Some(i * w);
            }
            gap = 0;
        }
    }
    if let Some(st) = start {
        // Trim trailing silent windows.
        let mut end = num_windows;
        while end > 0 && silent[end - 1] {
            end -= 1;
        }
        let end = (end * w).min(pcm.len());
        if end > st {
            segments.push(st..end);
        }
    }
    segments
}

/// The audio segmentation and feature extraction plug-in.
pub struct AudioExtractor {
    bank: MelFilterBank,
    frame_len: usize,
    frames_per_segment: usize,
    num_mfcc: usize,
    word_cfg: SegmenterConfig,
}

impl std::fmt::Debug for AudioExtractor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AudioExtractor")
            .field("frame_len", &self.frame_len)
            .field("frames_per_segment", &self.frames_per_segment)
            .finish()
    }
}

impl Default for AudioExtractor {
    fn default() -> Self {
        Self::new()
    }
}

impl AudioExtractor {
    /// Creates the paper-configured extractor: 512-sample windows, 32
    /// windows per segment, 6 MFCC coefficients.
    pub fn new() -> Self {
        Self {
            bank: MelFilterBank::new(20, 512, SAMPLE_RATE as f64),
            frame_len: 512,
            frames_per_segment: 32,
            num_mfcc: 6,
            word_cfg: SegmenterConfig::word(),
        }
    }

    /// Extracts the 192-d feature vector of one word segment: 32 sliding
    /// windows with variable stride, 6 MFCCs each.
    pub fn word_features(&self, pcm: &[f32]) -> FeatureVector {
        let n = self.frames_per_segment;
        let fl = self.frame_len;
        let mut components = Vec::with_capacity(n * self.num_mfcc);
        // Variable stride so the n windows always cover the segment.
        let stride = if pcm.len() > fl {
            ((pcm.len() - fl) as f64 / (n - 1) as f64).max(1.0)
        } else {
            0.0
        };
        let mut frame = vec![0.0f32; fl];
        for i in 0..n {
            let start = (stride * i as f64) as usize;
            let avail = pcm.len().saturating_sub(start).min(fl);
            frame[..avail].copy_from_slice(&pcm[start..start + avail]);
            for s in frame[avail..].iter_mut() {
                *s = 0.0;
            }
            for c in mfcc_frame(&frame, &self.bank, self.num_mfcc) {
                components.push(c as f32);
            }
        }
        FeatureVector::from_components(components)
    }
}

impl Extractor for AudioExtractor {
    type Input = [f32];

    fn name(&self) -> &'static str {
        "audio-mfcc"
    }

    fn dim(&self) -> usize {
        AUDIO_DIM
    }

    fn extract(&self, input: &[f32]) -> Result<DataObject> {
        let words = split_segments(input, &self.word_cfg);
        if words.is_empty() {
            return Err(CoreError::Extraction("no speech found in input".into()));
        }
        let parts: Vec<(FeatureVector, f32)> = words
            .into_iter()
            .map(|r| {
                let len = (r.end - r.start) as f32;
                (self.word_features(&input[r]), len)
            })
            .collect();
        DataObject::new(parts)
    }
}

/// Configuration of the TIMIT-like audio quality benchmark generator.
#[derive(Debug, Clone)]
pub struct TimitConfig {
    /// Number of planted similarity sets (the paper uses 450).
    pub num_sets: usize,
    /// Speakers per set (the paper uses 7).
    pub speakers_per_set: usize,
    /// Additional distractor sentences by random speakers.
    pub num_distractors: usize,
    /// Vocabulary size shared across the corpus.
    pub vocab_size: usize,
    /// Words per sentence (inclusive range).
    pub words_per_sentence: (usize, usize),
    /// Master seed.
    pub seed: u64,
}

impl Default for TimitConfig {
    fn default() -> Self {
        Self {
            num_sets: 40,
            speakers_per_set: 7,
            num_distractors: 120,
            vocab_size: 60,
            words_per_sentence: (5, 9),
            seed: 0x7131,
        }
    }
}

fn random_sentence<'a, R: Rng>(
    vocab: &'a Vocabulary,
    cfg: &TimitConfig,
    rng: &mut R,
) -> Vec<&'a WordTemplate> {
    let len = rng.random_range(cfg.words_per_sentence.0..=cfg.words_per_sentence.1);
    (0..len)
        .map(|_| vocab.word(rng.random_range(0..vocab.len())))
        .collect()
}

/// Generates the TIMIT-like audio quality benchmark: each similarity set is
/// one word sequence rendered by several synthetic speakers, run through
/// the full synthesis → segmentation → MFCC pipeline.
pub fn generate_timit_dataset(cfg: &TimitConfig) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let vocab = Vocabulary::generate(cfg.vocab_size, &mut rng);
    let extractor = AudioExtractor::new();
    let mut objects = Vec::new();
    let mut similarity_sets = Vec::new();
    let mut next_id = 0u64;
    for _ in 0..cfg.num_sets {
        let sentence = random_sentence(&vocab, cfg, &mut rng);
        let mut set = Vec::with_capacity(cfg.speakers_per_set);
        for _ in 0..cfg.speakers_per_set {
            let speaker = Speaker::random(&mut rng);
            let gap = rng.random_range(55.0..75.0);
            let pcm = render_sentence(&sentence, &speaker, gap, &mut rng);
            let obj = extractor
                .extract(&pcm)
                .expect("synthesized speech extracts");
            let id = ObjectId(next_id);
            next_id += 1;
            objects.push((id, obj));
            set.push(id);
        }
        similarity_sets.push(set);
    }
    for _ in 0..cfg.num_distractors {
        let sentence = random_sentence(&vocab, cfg, &mut rng);
        let speaker = Speaker::random(&mut rng);
        let gap = rng.random_range(55.0..75.0);
        let pcm = render_sentence(&sentence, &speaker, gap, &mut rng);
        let obj = extractor
            .extract(&pcm)
            .expect("synthesized speech extracts");
        objects.push((ObjectId(next_id), obj));
        next_id += 1;
    }
    Dataset {
        name: "timit-audio".into(),
        objects,
        similarity_sets,
        feature_dim: AUDIO_DIM,
    }
}

/// Fast parametric generator for the audio *speed* benchmark: objects are
/// drawn directly in MFCC feature space with the TIMIT-like segment
/// statistics (≈ 8.6 word segments per utterance), so per-query cost is
/// representative without synthesizing hours of PCM.
pub fn generate_mixed_audio(n: usize, seed: u64) -> Vec<(ObjectId, DataObject)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let k = rng.random_range(5..=12); // Mean ≈ 8.5 segments.
        let mut parts = Vec::with_capacity(k);
        for _ in 0..k {
            let mut c = Vec::with_capacity(AUDIO_DIM);
            for _ in 0..AUDIO_DIM {
                // MFCC coefficients are roughly zero-centered, few units wide.
                c.push(rng.random_range(-4.0f32..4.0));
            }
            let len_samples: f32 = rng.random_range(800.0..3000.0);
            parts.push((FeatureVector::from_components(c), len_samples));
        }
        out.push((
            ObjectId(i as u64),
            DataObject::new(parts).expect("valid generated object"),
        ));
    }
    out
}

/// Sketch parameters matching [`generate_mixed_audio`]'s feature ranges.
pub fn mixed_audio_sketch_params(nbits: usize, xor_folds: usize) -> SketchParams {
    SketchParams::with_options(
        nbits,
        xor_folds,
        vec![-4.0; AUDIO_DIM],
        vec![4.0; AUDIO_DIM],
        None,
    )
    .expect("static audio ranges are valid")
}

/// Derives sketch parameters from a dataset's feature distribution.
pub fn audio_sketch_params(dataset: &Dataset, nbits: usize, xor_folds: usize) -> SketchParams {
    let vectors = dataset
        .objects
        .iter()
        .flat_map(|(_, o)| o.segments().iter().map(|s| &s.vector));
    SketchParams::from_samples(nbits, xor_folds, vectors).expect("dataset is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speaker() -> Speaker {
        Speaker {
            pitch: 140.0,
            formant_scale: 1.0,
            breathiness: 0.05,
            amplitude: 0.7,
        }
    }

    #[test]
    fn split_detects_words_in_sentence() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let vocab = Vocabulary::generate(4, &mut rng);
        let words: Vec<&WordTemplate> = (0..4).map(|i| vocab.word(i)).collect();
        let pcm = render_sentence(&words, &speaker(), 70.0, &mut rng);
        let segments = split_segments(&pcm, &SegmenterConfig::word());
        assert_eq!(segments.len(), 4, "expected 4 word segments");
        // Segments are ordered and non-overlapping.
        for pair in segments.windows(2) {
            assert!(pair[0].end <= pair[1].start);
        }
    }

    #[test]
    fn utterance_segmenter_ignores_word_gaps() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let vocab = Vocabulary::generate(3, &mut rng);
        let words: Vec<&WordTemplate> = (0..3).map(|i| vocab.word(i)).collect();
        // 70 ms gaps: below the 10-window (200 ms) utterance threshold.
        let one = render_sentence(&words, &speaker(), 70.0, &mut rng);
        let segs = split_segments(&one, &SegmenterConfig::utterance());
        assert_eq!(segs.len(), 1, "one utterance expected");
        // Two sentences separated by 400 ms are two utterances.
        let mut two = one.clone();
        two.extend(std::iter::repeat_n(
            0.0f32,
            (0.4 * SAMPLE_RATE as f64) as usize,
        ));
        two.extend(render_sentence(&words, &speaker(), 70.0, &mut rng));
        let segs = split_segments(&two, &SegmenterConfig::utterance());
        assert_eq!(segs.len(), 2, "two utterances expected");
    }

    #[test]
    fn split_empty_and_silent() {
        assert!(split_segments(&[], &SegmenterConfig::word()).is_empty());
        let silence = vec![0.0f32; SAMPLE_RATE];
        assert!(split_segments(&silence, &SegmenterConfig::word()).is_empty());
    }

    #[test]
    fn extractor_produces_words_with_length_weights() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let vocab = Vocabulary::generate(5, &mut rng);
        let words: Vec<&WordTemplate> = (0..5).map(|i| vocab.word(i)).collect();
        let pcm = render_sentence(&words, &speaker(), 70.0, &mut rng);
        let e = AudioExtractor::new();
        let obj = e.extract(&pcm).unwrap();
        assert_eq!(obj.dim(), AUDIO_DIM);
        assert_eq!(obj.num_segments(), 5);
        assert!((obj.total_weight() - 1.0).abs() < 1e-5);
        assert_eq!(e.name(), "audio-mfcc");
        assert_eq!(e.dim(), 192);
    }

    #[test]
    fn extractor_rejects_silence() {
        let e = AudioExtractor::new();
        assert!(e.extract(&vec![0.0f32; 8000]).is_err());
    }

    #[test]
    fn word_features_are_length_invariant_dim() {
        let e = AudioExtractor::new();
        let short = vec![0.1f32; 300]; // Shorter than one frame.
        let long = vec![0.1f32; 20_000];
        assert_eq!(e.word_features(&short).dim(), AUDIO_DIM);
        assert_eq!(e.word_features(&long).dim(), AUDIO_DIM);
    }

    /// The same word by two speakers must be closer in feature space than
    /// two different words by the same speaker (speaker independence).
    #[test]
    fn same_word_different_speaker_is_close() {
        use ferret_core::distance::lp::L1;
        use ferret_core::distance::SegmentDistance;

        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let vocab = Vocabulary::generate(8, &mut rng);
        let e = AudioExtractor::new();
        let s1 = Speaker::random(&mut rng);
        let s2 = Speaker::random(&mut rng);
        // Average over several word pairs to smooth synthesis randomness.
        let mut same = 0.0;
        let mut diff = 0.0;
        let mut count = 0.0;
        for i in 0..4 {
            let w_a = vocab.word(i);
            let w_b = vocab.word(i + 4);
            let f_a1 = e.word_features(&synth::render_word(w_a, &s1, &mut rng));
            let f_a2 = e.word_features(&synth::render_word(w_a, &s2, &mut rng));
            let f_b1 = e.word_features(&synth::render_word(w_b, &s1, &mut rng));
            same += L1.eval(f_a1.components(), f_a2.components());
            diff += L1.eval(f_a1.components(), f_b1.components());
            count += 1.0;
        }
        assert!(
            same / count < diff / count,
            "same-word {} not below cross-word {}",
            same / count,
            diff / count
        );
    }

    #[test]
    fn timit_dataset_structure() {
        let cfg = TimitConfig {
            num_sets: 2,
            speakers_per_set: 3,
            num_distractors: 2,
            vocab_size: 10,
            words_per_sentence: (3, 5),
            seed: 5,
        };
        let ds = generate_timit_dataset(&cfg);
        assert_eq!(ds.len(), 2 * 3 + 2);
        assert_eq!(ds.similarity_sets.len(), 2);
        ds.validate().unwrap();
        assert!(ds.avg_segments() >= 3.0);
        let params = audio_sketch_params(&ds, 600, 2);
        assert_eq!(params.dim(), AUDIO_DIM);
        assert_eq!(params.nbits, 600);
    }
}
