package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"mipp/internal/config"
	"mipp/internal/mlp"
	"mipp/internal/trace"
)

// digestFits fits two predictors to different miss rates, so a kernel stage
// that loses the predictor returns another configuration's branch terms.
var digestFits = map[string]func(float64) float64{
	"tournament": func(e float64) float64 { return e / 2 },
	"gshare":     func(e float64) float64 { return 4 * e },
}

// digestOptions are the option sets the kernel digests cover, by name.
var digestOptions = []struct {
	name string
	opts Options
}{
	{"default", DefaultOptions()},
	{"coldmiss", Options{MLPMode: mlp.ColdMiss, BranchMissRate: -1}},
	{"miss0.3-nochain", Options{MLPMode: mlp.StrideMLP, BranchMissRate: 0.3, NoLLCChain: true}},
	{"critical-nobus", Options{MLPMode: mlp.StrideMLP, BranchMissRate: -1, DispatchModel: DispatchCritical, NoBusQueue: true}},
	{"combined", Options{MLPMode: mlp.StrideMLP, BranchMissRate: -1, Combined: true}},
}

// kernelDigests pins every Result field of every digest configuration, per
// workload and option set, as recorded before the clock-invariant stage was
// split into core and geometry columns. Batched and single-config
// evaluation must both reproduce each entry.
var kernelDigests = map[string]string{
	"mcf/default":                "dff44fd6cb38c71cf3c73b7d5b41902df555237c2cce9b27bcd60754b30ac565",
	"mcf/coldmiss":               "dff44fd6cb38c71cf3c73b7d5b41902df555237c2cce9b27bcd60754b30ac565",
	"mcf/miss0.3-nochain":        "e6a10ebcb353b889f95537fae35659a677f02e02c9e14465cafa7294301d0d20",
	"mcf/critical-nobus":         "db19996345eb6db7c0eecc69b5147011758de5f185681b241babdb66a586d97e",
	"mcf/combined":               "8e21d80a17310c7e6907bba05e5557832344d8ec50ed6a57183aa787c7bf4823",
	"gcc/default":                "4533a47bd6802e3ba48d366d631b073e9e24699269de1670bb6d9e405ef388ea",
	"gcc/coldmiss":               "5036b662149dc1cc9f7c4474011c77ca395f3133123f7f47a822bbb51fe59b1f",
	"gcc/miss0.3-nochain":        "44abda728840dcfcdd2fd7eb5e3d98f4ead54c8f0d13841f870cfbbfa472576d",
	"gcc/critical-nobus":         "b790ec7dcb8c67e7c37434a130bceac6b057392c4fa9fb4a0c4d5c56c4e119b2",
	"gcc/combined":               "d8a75e7b862bef9d355d5cadf4e4f7d1e30a5aa417f221bb7e7e85dd3889f9ff",
	"soplex/default":             "8a3f9c2c9e5f60d9603d9a5e5cf760b64376a8409fdff7cbe167e3eb5afc27b9",
	"soplex/coldmiss":            "f4a3affd93a49a3caf5b0f6953882048ce8c514afbaf28437ed88e1e455e8b7b",
	"soplex/miss0.3-nochain":     "e77b044c9b6703be06d39e6455d38e4aba50ddd164361fffc8101da4f24c8979",
	"soplex/critical-nobus":      "ff0f680196ec1daaae29d13b8abb0121b183253ef94a45d92b90662d5024a4bd",
	"soplex/combined":            "79f896498a44adc06e86aa273368cb3db072be60f64807cb58809c5b31f7f003",
	"milc/default":               "ec4f45bb3fa79a54080d1401d2387e260a6086493e3afa891acb92a5f843e98c",
	"milc/coldmiss":              "3786cbe9ee91dfaa2ee6829737d6fbdfcecf90f3208994c104cbea997398f4f0",
	"milc/miss0.3-nochain":       "a7348d0d62304b51102a0121e18a9d221ba81faea0c542a590de8013a02f13c6",
	"milc/critical-nobus":        "1d1ecc6b1251715c21195373195419bcd6e896f57b46edfb578a80b69e1b639f",
	"milc/combined":              "60dbe3cf499f1e51c508a9a2fa152f6dede17cc72f8d00628b451e155ecde753",
	"xalancbmk/default":          "b45e71c95a122ff4e3d23a103d3610dc55483d0fe9df8933b42f0fbcd794b2e7",
	"xalancbmk/coldmiss":         "cd4046452fd4d53473dbf60f899e95539fd6b39aec43cd8ee55f8f2140d12018",
	"xalancbmk/miss0.3-nochain":  "b3f1cc47714a680a94015ed6665598a210d4f6929f5235e590f22463427b2810",
	"xalancbmk/critical-nobus":   "a908abffa07122a3d700f70ff72c7aaa45d2ced5cb0a8eb6d838224bee470ec3",
	"xalancbmk/combined":         "6211a7ac8f2ce943ac16415060d87eaa25e8e3a283ef90d769c48fec5c1d4010",
	"libquantum/default":         "9b59f57ead37c28c6d14184677c26c4a04c2fa3ceb423796d9d4cfdbb1094c70",
	"libquantum/coldmiss":        "0693a116ec66b80b359e0bbd24fb91bcf53fbad032fe94577e343cc3bd99848f",
	"libquantum/miss0.3-nochain": "079ddf6571a595c580a49f199934523d2ae9a38942ad3bebc907b49397ffc845",
	"libquantum/critical-nobus":  "dee1d5e0db503fb63c91517d1587bb45b3704b1c0036a10b54b447cf7a826a8e",
	"libquantum/combined":        "176f4cda5e203b13cb6d9adf96605c8f8c053fa967c831501616a8720df97189",
}

// referenceVariants returns one-field variants of Reference(), each named
// after the field it changes, plus a few variants whose long L3 latency
// makes the §4.8 chained-LLC penalty fire at several ROB sizes (on mcf and
// xalancbmk; xalancbmk's load-dependence fraction f1 also varies with the
// ROB size).
func referenceVariants() []*config.Config {
	var out []*config.Config
	add := func(name string, edit func(c *config.Config)) {
		c := config.Reference()
		c.Name = "ref-" + name
		edit(c)
		out = append(out, c)
	}
	for cl := trace.Class(0); cl < trace.NumClasses; cl++ {
		add("fu-latency-"+cl.String(), func(c *config.Config) { c.FU[cl].Latency += 2 })
	}
	add("fu-pipelined-intdiv", func(c *config.Config) { c.FU[trace.IntDiv].Pipelined = true })
	add("frontend-depth", func(c *config.Config) { c.FrontEndDepth = 9 })
	add("l1d-size", func(c *config.Config) { c.L1D.SizeBytes = 64 << 10 })
	add("l1d-latency", func(c *config.Config) { c.L1D.LatencyCycles = 6 })
	add("l1i-size", func(c *config.Config) { c.L1I.SizeBytes = 8 << 10 })
	add("l2-latency", func(c *config.Config) { c.L2.LatencyCycles = 14 })
	add("l2-assoc", func(c *config.Config) { c.L2.Assoc = 16 })
	add("l2-size", func(c *config.Config) { c.L2.SizeBytes = 64 << 10 })
	add("l3-latency", func(c *config.Config) { c.L3.LatencyCycles = 45 })
	add("l3-size", func(c *config.Config) { c.L3.SizeBytes = 1 << 20 })
	add("mem-latency", func(c *config.Config) { c.MemLatencyNS = 100 })
	add("mem-bus", func(c *config.Config) { c.BusNSPerLine = 6 })
	add("mem-channels", func(c *config.Config) { c.MemChannels = 2 })
	add("predictor", func(c *config.Config) { c.Predictor = "gshare" })
	add("width", func(c *config.Config) { c.DispatchWidth = 6 })
	add("rob", func(c *config.Config) { c.ROB = 192 })
	add("iq", func(c *config.Config) { c.IQ = 48 })
	add("lsq", func(c *config.Config) { c.LSQ = 32 })
	add("mshrs", func(c *config.Config) { c.MSHRs = 3 })
	add("frequency", func(c *config.Config) { c.FrequencyGHz = 3.2 })
	add("prefetcher", func(c *config.Config) { c.Prefetcher.Enabled = true })
	add("ports", func(c *config.Config) {
		// Same port count as the reference, different content: one port
		// issues every non-memory class, the others loads and stores.
		c.Ports = []config.Port{
			{trace.IntALU, trace.IntMul, trace.IntDiv, trace.FPAdd, trace.FPMul, trace.FPDiv, trace.Branch, trace.Move},
			{trace.Load},
			{trace.Load},
			{trace.Store},
			{trace.Store},
			{trace.Load},
		}
	})
	for _, rob := range []int{16, 32, 64, 128, 256} {
		add("chain-rob"+strconv.Itoa(rob), func(c *config.Config) {
			c.L2.SizeBytes = 64 << 10
			c.L3.LatencyCycles = 400
			c.ROB = rob
		})
	}
	return out
}

// digestConfigs is the digest table's configuration list: Table 6.3, 3,000
// seeded wide-space points whose MSHR count and predictor vary on every
// 7th, and the one-field variants of Reference().
func digestConfigs() []*config.Config {
	cfgs := config.DesignSpace()
	space := wideSpace()
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 3000; i++ {
		cfg := space.At(rng.Intn(space.Size()))
		if i%7 == 0 {
			cfg.MSHRs = []int{1, 2, 4, 10}[rng.Intn(4)]
			cfg.Predictor = []string{"tournament", "gshare"}[rng.Intn(2)]
		}
		cfgs = append(cfgs, cfg)
	}
	return append(cfgs, referenceVariants()...)
}

// hashValue feeds every field of v into h: floats as math.Float64bits,
// integers and bools as 8 bytes, strings and slices length-prefixed.
func hashValue(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	default:
		panic("hashValue: unhandled kind " + v.Kind().String())
	}
}

// resultDigest is the sha256 over every field of one Result.
func resultDigest(r *Result) [sha256.Size]byte {
	h := sha256.New()
	hashValue(h, reflect.ValueOf(*r))
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestKernelDigests holds every Result of the digest configurations, per
// workload and option set, to the table recorded before the kernel's
// clock-invariant stage was factored: once through the batched entry point
// on a fresh Compiled, and once as batches of one on a pooled kernel of
// another.
func TestKernelDigests(t *testing.T) {
	cfgs := digestConfigs()
	for _, name := range []string{"mcf", "gcc", "soplex", "milc", "xalancbmk", "libquantum"} {
		p := profileFor(t, name, 40_000)
		for _, o := range digestOptions {
			key := name + "/" + o.name
			batched := sha256.New()
			c := Compile(p, digestFits, o.opts)
			var br BatchResult
			c.PrepareBatch(&br, len(cfgs))
			if err := c.EvaluateRangeInto(context.Background(), cfgs, &br, 0); err != nil {
				t.Fatal(err)
			}
			for i := range cfgs {
				d := resultDigest(br.Row(i))
				batched.Write(d[:])
			}
			single := sha256.New()
			c = Compile(p, digestFits, o.opts)
			for _, cfg := range cfgs {
				d := resultDigest(evaluate(c, cfg))
				single.Write(d[:])
			}
			b, s := hex.EncodeToString(batched.Sum(nil)), hex.EncodeToString(single.Sum(nil))
			if want := kernelDigests[key]; b != want || s != want {
				t.Errorf("%q: batched %s, single %s, want %s", key, b, s, want)
			}
		}
	}
}
