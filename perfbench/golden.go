package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// golden is the pinned-output file: per seed, the corpus hashes and
// the per-utterance transcript digests of the corpus prefix for both
// decode models, plus the quality thresholds that apply to any seed.
// A seed the file does not list is still checked against the
// thresholds, the repeat-decode consistency and (serve-pruned) the
// local decode.
type golden struct {
	PrefixUtts int                   `json:"prefix_utts"`
	WERCeiling map[string]float64    `json:"wer_ceiling"`
	Top1Floor  float64               `json:"retrain_top1_floor"`
	Seeds      map[string]goldenSeed `json:"seeds"`
}

type goldenSeed struct {
	CorpusSmall  string `json:"corpus_small"`
	CorpusTiny   string `json:"corpus_tiny"`
	DecodeDense  string `json:"decode_dense"`  // prefixUtts 16-hex-digit digests
	DecodePruned string `json:"decode_pruned"` // likewise; serve-pruned must match
}

func loadGolden(path string) (*golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden file: %w", err)
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden file %s: %w", path, err)
	}
	if g.PrefixUtts != prefixUtts {
		return nil, fmt.Errorf("golden file %s pins %d prefix utterances, the benchmark decodes %d (rerun -write-golden)", path, g.PrefixUtts, prefixUtts)
	}
	for seed, s := range g.Seeds {
		for _, field := range []string{s.DecodeDense, s.DecodePruned} {
			if _, err := parseDigests(field); err != nil {
				return nil, fmt.Errorf("golden file %s, seed %s: %w", path, seed, err)
			}
		}
	}
	return &g, nil
}

// pinned returns the seed's pinned corpus hash and prefix digests for
// workload's corpus: the small-scale one for decode-dense, otherwise
// the tiny-scale one decode-pruned and serve-pruned share.
func (g *golden) pinned(workload string, seed int64) (hash string, digests []uint64, ok bool) {
	s, ok := g.Seeds[strconv.FormatInt(seed, 10)]
	if !ok {
		return "", nil, false
	}
	hash, field := s.CorpusTiny, s.DecodePruned
	if workload == "decode-dense" {
		hash, field = s.CorpusSmall, s.DecodeDense
	}
	digests, _ = parseDigests(field)
	return hash, digests, true
}

// parseDigests splits a run of 16-hex-digit digests.
func parseDigests(field string) ([]uint64, error) {
	if len(field) != 16*prefixUtts {
		return nil, fmt.Errorf("%d hex digits, want %d", len(field), 16*prefixUtts)
	}
	out := make([]uint64, prefixUtts)
	for i := range out {
		v, err := strconv.ParseUint(field[16*i:16*i+16], 16, 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// writeGolden regenerates the golden file for the seed range o.writeGold
// ("LO-HI"): corpus hashes and prefix digests per seed, WER ceilings
// 8 points above the worst seed, and the retrain top-1 floor 0.10
// below the worst of the range's first three seeds. The thresholds
// catch broken models and searches on any seed; the digests catch
// every changed transcript on the pinned ones.
func writeGolden(o options) error {
	lo, hi, err := parseRange(o.writeGold)
	if err != nil {
		return err
	}
	g := golden{PrefixUtts: prefixUtts, WERCeiling: map[string]float64{}, Seeds: map[string]goldenSeed{}}
	worst := map[string]float64{}
	for seed := lo; seed <= hi; seed++ {
		so := o
		so.seed = seed
		var gs goldenSeed
		for _, wl := range []string{"decode-dense", "decode-pruned"} {
			r, err := workloads[wl].setup(so, map[string]float64{})
			if err != nil {
				return err
			}
			e := r.(*decodeEnv)
			pre, err := e.prefix(nil)
			if err != nil {
				return err
			}
			var sb strings.Builder
			for _, oc := range pre {
				sb.WriteString(hex16(oc.digest))
			}
			hash := hex16(e.corpus.Hash())
			if wl == "decode-dense" {
				gs.CorpusSmall, gs.DecodeDense = hash, sb.String()
			} else {
				gs.CorpusTiny, gs.DecodePruned = hash, sb.String()
			}
			worst[wl] = math.Max(worst[wl], prefixWER(e.corpus, pre))
		}
		g.Seeds[strconv.FormatInt(seed, 10)] = gs
		fmt.Fprintf(os.Stderr, "seed %d: dense WER so far %.4f, pruned %.4f\n", seed, worst["decode-dense"], worst["decode-pruned"])
	}
	for wl, w := range worst {
		g.WERCeiling[wl] = math.Ceil(w + 8)
	}
	g.WERCeiling["serve-pruned"] = g.WERCeiling["decode-pruned"]

	top1 := math.Inf(1)
	for seed := lo; seed <= hi && seed < lo+3; seed++ {
		so := o
		so.seed = seed
		r, err := setupRetrain(so, map[string]float64{})
		if err != nil {
			return err
		}
		out, err := r.(*retrainEnv).retrain()
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "seed %d: retrain top-1 %.4f\n", seed, out.top1)
		top1 = math.Min(top1, out.top1)
	}
	g.Top1Floor = math.Floor((top1-0.10)*100) / 100

	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.golden, append(b, '\n'), 0o644)
}

func parseRange(s string) (lo, hi int64, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		b = a
	}
	lo, err1 := strconv.ParseInt(a, 10, 64)
	hi, err2 := strconv.ParseInt(b, 10, 64)
	if err1 != nil || err2 != nil || hi < lo {
		return 0, 0, fmt.Errorf("bad seed range %q (want LO-HI)", s)
	}
	return lo, hi, nil
}
