//! Binary serialization of core types.
//!
//! Used by the metadata layer to persist feature vectors and the sketch
//! calibration record.
//! All integers are little-endian; formats are length-checked and reject
//! trailing bytes.

use crate::error::{CoreError, Result};
use crate::object::DataObject;
use crate::sketch::SketchParams;
use crate::vector::FeatureVector;

fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if bytes.len() < n {
        return Err(CoreError::Extraction(format!(
            "truncated object bytes: wanted {n}, have {}",
            bytes.len()
        )));
    }
    let (head, tail) = bytes.split_at(n);
    *bytes = tail;
    Ok(head)
}

fn get_u32(bytes: &mut &[u8]) -> Result<u32> {
    let b = take(bytes, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn get_f32(bytes: &mut &[u8]) -> Result<f32> {
    let b = take(bytes, 4)?;
    Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn get_f32s(bytes: &mut &[u8], n: usize) -> Result<Vec<f32>> {
    (0..n).map(|_| get_f32(bytes)).collect()
}

/// Serializes a [`DataObject`]: `dim, k`, then per segment `weight` and
/// `dim` components.
pub fn encode_object(obj: &DataObject) -> Vec<u8> {
    let dim = obj.dim();
    let k = obj.num_segments();
    let mut out = Vec::with_capacity(8 + k * (4 + dim * 4));
    out.extend_from_slice(&(dim as u32).to_le_bytes());
    out.extend_from_slice(&(k as u32).to_le_bytes());
    for seg in obj.segments() {
        out.extend_from_slice(&seg.weight.to_le_bytes());
        for &c in seg.vector.components() {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }
    out
}

/// Deserializes a [`DataObject`] from [`encode_object`] bytes.
pub fn decode_object(mut bytes: &[u8]) -> Result<DataObject> {
    let dim = get_u32(&mut bytes)? as usize;
    let k = get_u32(&mut bytes)? as usize;
    if dim == 0 || k == 0 {
        return Err(CoreError::EmptyObject);
    }
    if k > 1 << 24 || dim > 1 << 24 {
        return Err(CoreError::Extraction("implausible object header".into()));
    }
    let mut parts = Vec::with_capacity(k);
    for _ in 0..k {
        let weight = get_f32(&mut bytes)?;
        let mut components = Vec::with_capacity(dim);
        for _ in 0..dim {
            components.push(get_f32(&mut bytes)?);
        }
        parts.push((FeatureVector::new(components)?, weight));
    }
    if !bytes.is_empty() {
        return Err(CoreError::Extraction("trailing object bytes".into()));
    }
    DataObject::from_normalized(parts)
}

/// Version of the [`encode_calibration`] layout; a record of any other
/// version is rejected rather than guessed at.
pub const CALIBRATION_FORMAT: u32 = 1;

/// Serializes a store's sketch calibration: `format, seed, N, K, D`, then
/// `D` minima, `D` maxima, a weights flag and (when set) `D` weights.
/// Floats are stored by bit pattern, so a decoded record sketches exactly
/// like the one encoded.
pub fn encode_calibration(params: &SketchParams, seed: u64) -> Vec<u8> {
    let dim = params.dim();
    let mut out = CALIBRATION_FORMAT.to_le_bytes().to_vec();
    out.extend_from_slice(&seed.to_le_bytes());
    for n in [params.nbits, params.xor_folds, dim] {
        out.extend_from_slice(&(n as u32).to_le_bytes());
    }
    let weights = params.dim_weights.as_deref();
    out.push(u8::from(weights.is_some()));
    for x in params
        .mins
        .iter()
        .chain(&params.maxs)
        .chain(weights.unwrap_or_default())
    {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Deserializes [`encode_calibration`] bytes into the parameters and seed,
/// validating the parameters as [`SketchParams::with_options`] does.
pub fn decode_calibration(mut bytes: &[u8]) -> Result<(SketchParams, u64)> {
    let format = get_u32(&mut bytes)?;
    if format != CALIBRATION_FORMAT {
        return Err(CoreError::Extraction(format!(
            "unknown calibration format {format}"
        )));
    }
    let seed = u64::from(get_u32(&mut bytes)?) | u64::from(get_u32(&mut bytes)?) << 32;
    let nbits = get_u32(&mut bytes)? as usize;
    let xor_folds = get_u32(&mut bytes)? as usize;
    let dim = get_u32(&mut bytes)? as usize;
    let weighted = take(&mut bytes, 1)?[0] != 0;
    let mins = get_f32s(&mut bytes, dim)?;
    let maxs = get_f32s(&mut bytes, dim)?;
    let weights = weighted.then(|| get_f32s(&mut bytes, dim)).transpose()?;
    if !bytes.is_empty() {
        return Err(CoreError::Extraction("trailing calibration bytes".into()));
    }
    let params = SketchParams::with_options(nbits, xor_folds, mins, maxs, weights)?;
    Ok((params, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj() -> DataObject {
        DataObject::new(vec![
            (FeatureVector::new(vec![0.25, -1.5, 3.0]).unwrap(), 1.0),
            (FeatureVector::new(vec![9.0, 0.0, -0.125]).unwrap(), 3.0),
        ])
        .unwrap()
    }

    #[test]
    fn object_roundtrip() {
        // Weights 0.4 : 0.8 : 0.3 normalize to 0.2 (as f32) and would move
        // by an ulp if decoding normalized them again.
        let v = || FeatureVector::new(vec![1.0, 2.0, 3.0]).unwrap();
        let drifting = DataObject::new(vec![(v(), 0.4), (v(), 0.8), (v(), 0.3)]).unwrap();
        for o in [obj(), drifting] {
            let bytes = encode_object(&o);
            let back = decode_object(&bytes).unwrap();
            assert_eq!(o, back);
        }
    }

    #[test]
    fn object_rejects_garbage() {
        assert!(decode_object(&[]).is_err());
        let bytes = encode_object(&obj());
        assert!(decode_object(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_object(&extra).is_err());
        // Implausible header.
        let mut bad = Vec::new();
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_object(&bad).is_err());
    }

    #[test]
    fn calibration_rejects_garbage() {
        let params = SketchParams::new(64, vec![0.0, -1.0], vec![1.0, 2.0]).unwrap();
        let bytes = encode_calibration(&params, 7);
        assert_eq!(decode_calibration(&bytes).unwrap(), (params, 7));
        assert!(decode_calibration(&[]).is_err());
        assert!(decode_calibration(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_calibration(&extra).is_err());
        let mut future = bytes.clone();
        future[0] = 2;
        assert!(decode_calibration(&future).is_err());
        // Well-formed bytes, invalid parameters (N = 0).
        let mut zero_bits = bytes;
        zero_bits[12..16].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_calibration(&zero_bits).is_err());
    }
}
