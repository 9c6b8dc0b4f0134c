package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"repro/internal/hhc"
	"repro/internal/hypercube"
)

// constructDigest is the SHA-256 of every container and fan the digest
// sweep below produces. It pins construction output byte for byte: a
// change that only makes construction faster must leave it unchanged.
// Update it only with a change that means to alter which paths are built.
const constructDigest = "ad52fe8f3442034024154fa002a61486b8ae70d93a3466e714f4717c267c9ffa"

// TestConstructDigest hashes DisjointPathsOpt over seeded pairs for
// m=1..6 under three option sets (same-cube and coinciding pairs
// included), and hypercube.Fan results and error strings for k=1..7 over
// random target sets that include duplicates, the source itself and
// more targets than the connectivity.
func TestConstructDigest(t *testing.T) {
	h := sha256.New()
	digestContainers(t, h)
	digestFans(h)
	if got := hex.EncodeToString(h.Sum(nil)); got != constructDigest {
		t.Fatalf("construction digest = %s, want %s", got, constructDigest)
	}
}

func digestContainers(t *testing.T, h hash.Hash) {
	opts := []Options{
		{},
		{Order: OrderGray, Detour: DetourNearest},
		{Order: OrderNearest},
	}
	const pairsPerM = 1000
	var buf []byte
	for m := 1; m <= 6; m++ {
		g := mustGraph(t, m)
		xMask := ^uint64(0) >> uint(64-g.T())
		r := rand.New(rand.NewSource(int64(m)))
		for i := 0; i < pairsPerM; i++ {
			u := hhc.Node{X: r.Uint64() & xMask, Y: uint8(r.Intn(g.T()))}
			v := hhc.Node{X: r.Uint64() & xMask, Y: uint8(r.Intn(g.T()))}
			if r.Intn(4) == 0 {
				v.X = u.X
			}
			for oi, opt := range opts {
				paths, err := DisjointPathsOpt(g, u, v, opt)
				buf = append(buf[:0], byte(m), byte(oi))
				buf = appendNode(buf, u)
				buf = appendNode(buf, v)
				if err != nil {
					buf = append(buf, err.Error()...)
				}
				for _, p := range paths {
					buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
					for _, w := range p {
						buf = appendNode(buf, w)
					}
				}
				h.Write(buf)
			}
		}
	}
}

func appendNode(buf []byte, u hhc.Node) []byte {
	return append(binary.LittleEndian.AppendUint64(buf, u.X), u.Y)
}

func digestFans(h hash.Hash) {
	const fansPerK = 2000
	var buf []byte
	for k := 1; k <= 7; k++ {
		r := rand.New(rand.NewSource(int64(100 + k)))
		n := 1 << uint(k)
		for i := 0; i < fansPerK; i++ {
			src := uint64(r.Intn(n))
			targets := make([]uint64, r.Intn(k+2))
			for j := range targets {
				targets[j] = uint64(r.Intn(n))
			}
			if len(targets) > 0 {
				switch r.Intn(8) {
				case 0:
					targets[r.Intn(len(targets))] = src
				case 1:
					targets[r.Intn(len(targets))] = targets[0]
				}
			}
			fan, err := hypercube.Fan(k, src, targets)
			buf = append(buf[:0], byte(k))
			buf = binary.LittleEndian.AppendUint64(buf, src)
			for _, tg := range targets {
				buf = binary.LittleEndian.AppendUint64(buf, tg)
			}
			if err != nil {
				buf = append(buf, err.Error()...)
			}
			for _, p := range fan {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
				for _, w := range p {
					buf = binary.LittleEndian.AppendUint64(buf, w)
				}
			}
			h.Write(buf)
		}
	}
}
