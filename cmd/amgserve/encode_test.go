package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// jsonReply is the oracle: the bytes encoding/json's Encoder, the
// encoder encodeReply replaced, writes for resp.
func jsonReply(tb testing.TB, resp *solveResponse) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// replyStrings are error and escalation texts that exercise every
// escaping rule of encoding/json's HTML-safe string encoder.
var replyStrings = []string{
	"",
	"diverged",
	`serve: 1 of 4 requested right-hand side(s) failed: krylov: "quoted" \ back`,
	"<script>&amp;</script>",
	"line\u2028para\u2029end",
	"invalid \xff\xfe utf-8 \xc3",
	"controls \x00\x01\b\f\n\r\t\x1f\x7f",
	"ünïcode ✓ 𝄞",
}

// randomFloat draws from the float64 ranges encoding/json formats
// differently: ordinary values, the 'e' form below 1e-6 and from 1e21,
// the cutoffs themselves, subnormals, signed zeros and arbitrary bits.
func randomFloat(rng *rand.Rand) float64 {
	v := 0.0
	switch rng.IntN(8) {
	case 0:
		v = 2*rng.Float64() - 1
	case 1:
		v = math.Ldexp(rng.Float64(), -rng.IntN(1075)) // tiny, down to subnormal
	case 2:
		v = math.Ldexp(rng.Float64(), 60+rng.IntN(964)) // huge
	case 3:
		v = []float64{1e-6, 1e21, 1e-7, 1e-10, 1e20}[rng.IntN(5)]
		v = math.Nextafter(v, []float64{0, math.Inf(1)}[rng.IntN(2)])
	case 4:
		v = []float64{0, math.Copysign(0, -1), 1, 4096, 8.357455313457785e-17}[rng.IntN(5)]
	case 5:
		v = float64(rng.Int64N(1 << 54))
	default:
		for v = math.NaN(); math.IsNaN(v) || math.IsInf(v, 0); {
			v = math.Float64frombits(rng.Uint64())
		}
	}
	if rng.IntN(2) == 0 {
		v = -v
	}
	return v
}

func randomFloats(rng *rand.Rand, n int) []float64 {
	switch {
	case n == 0 && rng.IntN(2) == 0:
		return nil
	case n == 0:
		return []float64{}
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = randomFloat(rng)
	}
	return xs
}

// randomReply builds a finite reply: nil, empty or up to four columns,
// the single-RHS mirror of column 0 (or an unrelated x), and texts from
// replyStrings.
func randomReply(rng *rand.Rand) solveResponse {
	pick := func() string { return replyStrings[rng.IntN(len(replyStrings))] }
	resp := solveResponse{Outcome: pick(), Converged: rng.IntN(2) == 0,
		RelResidual: randomFloat(rng), Error: pick()}
	if k := rng.IntN(6) - 1; k >= 0 {
		resp.Columns = make([]columnResult, k)
		for j := range resp.Columns {
			resp.Columns[j] = columnResult{X: randomFloats(rng, rng.IntN(40)),
				Iterations: rng.IntN(1000) - 1, RelResidual: randomFloat(rng), Converged: rng.IntN(2) == 0}
		}
	}
	switch rng.IntN(3) {
	case 0:
		if len(resp.Columns) == 1 {
			resp.X = resp.Columns[0].X
		}
	case 1:
		resp.X = randomFloats(rng, rng.IntN(5))
	}
	for range rng.IntN(4) {
		resp.Escalations = append(resp.Escalations, pick())
	}
	return resp
}

// TestReplyEncodeMatchesEncodingJSON: every finite reply encodes to
// exactly the bytes encoding/json writes.
func TestReplyEncodeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	mirrored := 0
	for i := range 3000 {
		resp := randomReply(rng)
		if len(resp.Columns) > 0 && sameBacking(resp.X, resp.Columns[0].X) {
			mirrored++
		}
		if got, want := encodeReply(&resp), jsonReply(t, &resp); !bytes.Equal(got, want) {
			t.Fatalf("reply %d %+v:\n got %s\nwant %s", i, resp, got, want)
		}
	}
	if mirrored < 100 {
		t.Fatalf("only %d of 3000 replies mirror column 0's x", mirrored)
	}
}

// FuzzReplyEncode holds encodeReply to encoding/json: a finite reply
// encodes to the same bytes. A reply with a NaN or ±Inf, which
// encoding/json refuses, must still be valid JSON that reads back as the
// reply with each non-finite value zeroed (null leaves a float64 zero).
// xbits supplies the solution values, 8 bytes each; shape picks the
// column count (bits 0-2, 7 = nil columns), whether x mirrors column 0
// (bit 3) or is a copy (bit 4), and the converged flags (bits 5, 6).
func FuzzReplyEncode(f *testing.F) {
	f.Fuzz(func(t *testing.T, outcome, errText, escalation string, xbits []byte, relres float64, iterations int, shape uint8) {
		xs := make([]float64, len(xbits)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(xbits[8*i:]))
		}
		resp := solveResponse{Outcome: outcome, Converged: shape&32 != 0, RelResidual: relres, Error: errText}
		if k := int(shape & 7); k < 7 {
			resp.Columns = make([]columnResult, k)
			for j := range resp.Columns {
				resp.Columns[j] = columnResult{X: xs[j*len(xs)/k : (j+1)*len(xs)/k],
					Iterations: iterations + j, RelResidual: relres, Converged: shape&64 != 0}
			}
		}
		if len(resp.Columns) > 0 {
			switch {
			case shape&8 != 0:
				resp.X = resp.Columns[0].X
			case shape&16 != 0:
				resp.X = append([]float64(nil), resp.Columns[0].X...)
			}
		}
		if escalation != "" {
			resp.Escalations = []string{escalation, outcome}
		}
		got := encodeReply(&resp)

		finite := zeroNonFinite(&resp)
		want := jsonReply(t, &finite)
		if reflect.DeepEqual(finite, resp) {
			if !bytes.Equal(got, want) {
				t.Fatalf("reply %+v:\n got %s\nwant %s", resp, got, want)
			}
			return
		}
		var back, wantBack solveResponse
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("reply with a non-finite value is not JSON: %v\n%s", err, got)
		}
		if err := json.Unmarshal(want, &wantBack); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, wantBack) {
			t.Fatalf("reply %+v reads back as\n%+v\nwant\n%+v", resp, back, wantBack)
		}
	})
}

// zeroNonFinite returns a deep copy of resp with every NaN and ±Inf
// replaced by 0.
func zeroNonFinite(resp *solveResponse) solveResponse {
	fix := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	fixAll := func(xs []float64) []float64 {
		if xs == nil {
			return nil
		}
		out := make([]float64, len(xs))
		for i, v := range xs {
			out[i] = fix(v)
		}
		return out
	}
	out := *resp
	out.RelResidual = fix(resp.RelResidual)
	out.X = fixAll(resp.X)
	if resp.Columns != nil {
		out.Columns = make([]columnResult, len(resp.Columns))
		for j, c := range resp.Columns {
			c.X, c.RelResidual = fixAll(c.X), fix(c.RelResidual)
			out.Columns[j] = c
		}
	}
	return out
}

// BenchmarkReplyEncode compares encodeReply with encoding/json on
// 4096-row replies: one column with its "x" mirror, and four columns.
func BenchmarkReplyEncode(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, nrhs := range []int{1, 4} {
		resp := solveResponse{Outcome: "reuse", Converged: true, RelResidual: 8.357455313457785e-9}
		for range nrhs {
			x := make([]float64, 4096)
			for i := range x {
				x[i] = 2*rng.Float64() - 1
			}
			resp.Columns = append(resp.Columns, columnResult{X: x, Iterations: 11, RelResidual: 8.357455313457785e-9, Converged: true})
		}
		if nrhs == 1 {
			resp.X = resp.Columns[0].X
		}
		size := int64(len(jsonReply(b, &resp)))
		for _, enc := range []struct {
			name   string
			encode func(*solveResponse) []byte
		}{
			{"json", func(resp *solveResponse) []byte { return jsonReply(b, resp) }},
			{"hand", encodeReply},
		} {
			b.Run(fmt.Sprintf("%dRHS/%s", nrhs, enc.name), func(b *testing.B) {
				b.SetBytes(size)
				b.ReportAllocs()
				for b.Loop() {
					enc.encode(&resp)
				}
			})
		}
	}
}
