package nn

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/tensor"
)

// Binary model-exchange format. The paper ships models into the SSD in ONNX
// (§4.7.2, loadModel); this codec is the offline-friendly stand-in: a compact
// little-endian container for a Network's graph and weights that the engine's
// loadModel API accepts.
//
//	magic   "DSNN" | version u16
//	name    u16 length + bytes
//	shape   u8 rank + i32 dims
//	combine u8
//	layers  u16 count, then per layer a kind tag and kind-specific record
const (
	codecMagic   = "DSNN"
	codecVersion = 1
	// maxLayerWeights bounds a single decoded layer's parameter count and a
	// decoded network's widest activation, so a corrupted or hostile model
	// image cannot describe a multi-gigabyte layer or scorer.
	maxLayerWeights = 1 << 27 // 128M parameters = 512 MB of float32
	// maxConvDim bounds each decoded conv dimension, which keeps every
	// product of them the decoder or the shape walk forms inside an int64.
	maxConvDim = 1 << 15
)

var byteOrder = binary.LittleEndian

// Marshal encodes the network, including all weights.
func Marshal(n *Network) ([]byte, error) {
	var buf bytes.Buffer
	if err := Write(&buf, n); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal decodes a network produced by Marshal.
func Unmarshal(data []byte) (*Network, error) {
	return Read(bytes.NewReader(data))
}

// Write encodes the network to w.
func Write(w io.Writer, n *Network) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(codecMagic); err != nil {
		return err
	}
	writeU16(bw, codecVersion)
	writeString(bw, n.Name)
	if len(n.FeatureShape) > 255 {
		return fmt.Errorf("nn: feature shape rank %d too large", len(n.FeatureShape))
	}
	bw.WriteByte(byte(len(n.FeatureShape)))
	for _, d := range n.FeatureShape {
		writeI32(bw, int32(d))
	}
	bw.WriteByte(byte(n.Combine))
	if len(n.Layers) > math.MaxUint16 {
		return fmt.Errorf("nn: %d layers too many", len(n.Layers))
	}
	writeU16(bw, uint16(len(n.Layers)))
	for _, l := range n.Layers {
		switch l := l.(type) {
		case *FC:
			bw.WriteByte(byte(KindFC))
			writeString(bw, l.LayerName)
			writeI32(bw, int32(l.In))
			writeI32(bw, int32(l.Out))
			bw.WriteByte(byte(l.Act))
			writeF32s(bw, l.W)
			writeF32s(bw, l.B)
		case *Conv:
			bw.WriteByte(byte(KindConv))
			writeString(bw, l.LayerName)
			for _, v := range []int{l.H, l.W, l.C, l.K, l.R, l.S, l.Stride, l.Pad} {
				writeI32(bw, int32(v))
			}
			bw.WriteByte(byte(l.Act))
			writeF32s(bw, l.Wt)
			writeF32s(bw, l.B)
		case *Elementwise:
			bw.WriteByte(byte(KindElementwise))
			writeString(bw, l.LayerName)
			writeI32(bw, int32(l.N))
			bw.WriteByte(byte(l.Op))
			writeF32s(bw, l.Operand)
		default:
			return fmt.Errorf("nn: cannot encode layer type %T", l)
		}
	}
	return bw.Flush()
}

// Read decodes a network from r.
func Read(r io.Reader) (*Network, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("nn: reading magic: %w", err)
	}
	if string(magic) != codecMagic {
		return nil, fmt.Errorf("nn: bad magic %q", magic)
	}
	version, err := readU16(br)
	if err != nil {
		return nil, err
	}
	if version != codecVersion {
		return nil, fmt.Errorf("nn: unsupported model version %d", version)
	}
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	rank, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	shape := make(tensor.Shape, rank)
	elems := int64(1)
	for i := range shape {
		d, err := readI32(br)
		if err != nil {
			return nil, err
		}
		if elems *= int64(d); d <= 0 || elems > maxLayerWeights {
			return nil, fmt.Errorf("nn: feature dimension %d non-positive or too large", d)
		}
		shape[i] = int(d)
	}
	cb, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	combine := CombineOp(cb)
	if combine != CombineHadamard && combine != CombineSubtract && combine != CombineConcat {
		return nil, fmt.Errorf("nn: unknown combine op %d", cb)
	}
	count, err := readU16(br)
	if err != nil {
		return nil, err
	}
	layers := make([]Layer, 0, count)
	for i := 0; i < int(count); i++ {
		kb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		lname, err := readString(br)
		if err != nil {
			return nil, err
		}
		switch Kind(kb) {
		case KindFC:
			in, err1 := readI32(br)
			out, err2 := readI32(br)
			act, err3 := readAct(br)
			if err := firstErr(err1, err2, err3); err != nil {
				return nil, err
			}
			if in <= 0 || out <= 0 || int64(in)*int64(out) > maxLayerWeights {
				return nil, fmt.Errorf("nn: fc %q bad dims %dx%d", lname, in, out)
			}
			w, err1 := readF32s(br, int(in)*int(out))
			b, err2 := readF32s(br, int(out))
			if err := firstErr(err1, err2); err != nil {
				return nil, err
			}
			layers = append(layers, &FC{LayerName: lname, In: int(in), Out: int(out), W: w, B: b, Act: act})
		case KindConv:
			var dims [8]int
			for j := range dims {
				v, err := readI32(br)
				if err != nil {
					return nil, err
				}
				if v < 0 || v > maxConvDim {
					return nil, fmt.Errorf("nn: conv %q dim %d outside [0, %d]", lname, v, maxConvDim)
				}
				dims[j] = int(v)
			}
			act, err := readAct(br)
			if err != nil {
				return nil, err
			}
			l := &Conv{LayerName: lname, H: dims[0], W: dims[1], C: dims[2], K: dims[3],
				R: dims[4], S: dims[5], Stride: dims[6], Pad: dims[7], Act: act}
			if err := l.checkGeometry(); err != nil {
				return nil, err
			}
			weights := l.K * l.R * l.S * l.C
			if weights > maxLayerWeights {
				return nil, fmt.Errorf("nn: conv %q has %d weights, exceeding the %d cap",
					lname, weights, maxLayerWeights)
			}
			var err1, err2 error
			l.Wt, err1 = readF32s(br, weights)
			l.B, err2 = readF32s(br, l.K)
			if err := firstErr(err1, err2); err != nil {
				return nil, err
			}
			layers = append(layers, l)
		case KindElementwise:
			w, err1 := readI32(br)
			ob, err2 := br.ReadByte()
			if err := firstErr(err1, err2); err != nil {
				return nil, err
			}
			if w <= 0 || w > maxLayerWeights {
				return nil, fmt.Errorf("nn: elementwise %q bad width %d", lname, w)
			}
			if EWOp(ob) > EWScale {
				return nil, fmt.Errorf("nn: elementwise %q unknown op %d", lname, ob)
			}
			operand, err := readF32s(br, int(w))
			if err != nil {
				return nil, err
			}
			layers = append(layers, &Elementwise{LayerName: lname, N: int(w), Op: EWOp(ob), Operand: operand})
		default:
			return nil, fmt.Errorf("nn: unknown layer kind %d", kb)
		}
	}
	n, err := NewNetwork(name, shape, combine, layers...)
	if err != nil {
		return nil, err
	}
	if w := max(n.plan.widest, n.plan.colLen); w > maxLayerWeights {
		return nil, fmt.Errorf("nn: network %q needs a %d-element activation, exceeding the %d cap",
			name, w, maxLayerWeights)
	}
	return n, nil
}

func writeU16(w *bufio.Writer, v uint16) {
	var b [2]byte
	byteOrder.PutUint16(b[:], v)
	w.Write(b[:])
}

func writeI32(w *bufio.Writer, v int32) {
	var b [4]byte
	byteOrder.PutUint32(b[:], uint32(v))
	w.Write(b[:])
}

func writeString(w *bufio.Writer, s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	writeU16(w, uint16(len(s)))
	w.WriteString(s)
}

func writeF32s(w *bufio.Writer, xs []float32) {
	var b [4]byte
	for _, x := range xs {
		byteOrder.PutUint32(b[:], math.Float32bits(x))
		w.Write(b[:])
	}
}

func readU16(r io.Reader) (uint16, error) {
	var b [2]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return byteOrder.Uint16(b[:]), nil
}

func readI32(r io.Reader) (int32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return int32(byteOrder.Uint32(b[:])), nil
}

// readAct reads an activation byte and rejects values outside the enum: model
// images arrive from outside the process, and an unknown activation would
// otherwise run silently as the identity.
func readAct(br *bufio.Reader) (Activation, error) {
	b, err := br.ReadByte()
	if err == nil && Activation(b) > ActSigmoid {
		err = fmt.Errorf("nn: unknown activation %d", b)
	}
	return Activation(b), err
}

func readString(r io.Reader) (string, error) {
	n, err := readU16(r)
	if err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// readF32s reads n float32s. The result grows as bytes actually arrive, one
// chunk at a time, so a hostile length field costs no more memory than the
// stream really holds.
func readF32s(r io.Reader, n int) ([]float32, error) {
	const chunk = 1 << 14
	out := make([]float32, 0, min(n, chunk))
	b := make([]byte, 4*min(n, chunk))
	for len(out) < n {
		b = b[:4*min(n-len(out), chunk)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < len(b); i += 4 {
			out = append(out, math.Float32frombits(byteOrder.Uint32(b[i:])))
		}
	}
	return out, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
