package profiler

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"mipp/internal/stats"
	"mipp/internal/trace"
	"mipp/internal/workload"
)

func TestRunBasics(t *testing.T) {
	s := workload.MustGenerate("gcc", 60_000, 0)
	p := Run(s, Options{})
	if p.TotalUops != int64(s.Len()) {
		t.Errorf("TotalUops = %d, want %d", p.TotalUops, s.Len())
	}
	if len(p.Micros) < 3 {
		t.Fatalf("only %d micro-traces", len(p.Micros))
	}
	if p.Entropy <= 0 || p.Entropy >= 1 {
		t.Errorf("entropy %v out of (0,1)", p.Entropy)
	}
	if p.LoadCount == 0 || p.StoreCount == 0 {
		t.Error("no memory accesses profiled")
	}
	// Mix fractions sum to 1.
	sum := 0.0
	for _, f := range p.Mix() {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("mix sums to %v", sum)
	}
	if upi := p.UopsPerInstruction(); upi < 1 || upi > 1.6 {
		t.Errorf("uops/instr %v", upi)
	}
}

func TestChainsOrderingAPLeCP(t *testing.T) {
	for _, name := range []string{"gamess", "mcf", "bwaves"} {
		p := Run(workload.MustGenerate(name, 40_000, 0), Options{})
		for _, rob := range []int{16, 64, 128, 256} {
			ap, _, cp := p.Chains.At(rob)
			if ap > cp+1e-9 {
				t.Errorf("%s ROB %d: AP %.2f > CP %.2f", name, rob, ap, cp)
			}
			if ap < 1 || cp < 1 {
				t.Errorf("%s ROB %d: chains below 1 (ap=%v cp=%v)", name, rob, ap, cp)
			}
		}
		// CP grows with ROB.
		_, _, cpSmall := p.Chains.At(32)
		_, _, cpBig := p.Chains.At(256)
		if cpBig < cpSmall {
			t.Errorf("%s: CP decreased with ROB: %.2f -> %.2f", name, cpSmall, cpBig)
		}
	}
}

func TestChainWorkedExample(t *testing.T) {
	// Figure 3.3's style: a-b-c independent, d<-c, e<-d, f<-c, g<-f.
	uops := []trace.Uop{
		{Class: trace.IntALU, First: true},              // a
		{Class: trace.IntALU, First: true},              // b
		{Class: trace.IntALU, First: true},              // c
		{Class: trace.Load, First: true, SrcDist1: 1},   // d <- c
		{Class: trace.IntALU, First: true, SrcDist1: 1}, // e <- d
		{Class: trace.IntALU, First: true, SrcDist1: 3}, // f <- c
		{Class: trace.Branch, First: true, SrcDist1: 1}, // g <- f
		{Class: trace.IntALU, First: true, SrcDist1: 2}, // h <- f
	}
	cs := chainBuffers(uops, []int{8})
	// Depths: 1,1,1,2,3,2,3,3 -> AP=2, CP=3, ABP=3 (g).
	if cs.AP[0] != 2 {
		t.Errorf("AP = %v, want 2", cs.AP[0])
	}
	if cs.CP[0] != 3 {
		t.Errorf("CP = %v, want 3", cs.CP[0])
	}
	if cs.ABP[0] != 3 {
		t.Errorf("ABP = %v, want 3", cs.ABP[0])
	}
}

func TestLoadDependenceHistogram(t *testing.T) {
	// load1 (l=1); alu <- load1; load2 <- alu (l=2); load3 indep (l=1).
	uops := []trace.Uop{
		{Class: trace.Load, First: true},
		{Class: trace.IntALU, First: true, SrcDist1: 1},
		{Class: trace.Load, First: true, SrcDist1: 1},
		{Class: trace.Load, First: true},
	}
	h := loadDependenceHistogram(uops, 64)
	if h.Count(1) != 2 || h.Count(2) != 1 {
		t.Errorf("f(l): l1=%v l2=%v", h.Count(1), h.Count(2))
	}
}

func TestColdTracking(t *testing.T) {
	s := workload.MustGenerate("libquantum", 40_000, 0)
	p := Run(s, Options{})
	if p.ColdLoads == 0 {
		t.Error("streaming workload must have cold loads")
	}
	if p.ColdMissAvgPerROB(128) <= 0 {
		t.Error("cold-per-ROB average should be positive")
	}
}

func TestStrideClassification(t *testing.T) {
	p := Run(workload.MustGenerate("libquantum", 40_000, 0), Options{})
	r := p.CategoryRatios()
	strided := r[CatStride] + r[CatFilter1] + r[CatFilter2] + r[CatFilter3] + r[CatFilter4]
	if strided < 0.5 {
		t.Errorf("libquantum strided ratio %.2f, want > 0.5", strided)
	}
	pr := Run(workload.MustGenerate("milc", 40_000, 0), Options{})
	rr := pr.CategoryRatios()
	if rr[CatRandom]+rr[CatUnique] < 0.3 {
		t.Errorf("milc random+unique ratio %.2f, want > 0.3", rr[CatRandom]+rr[CatUnique])
	}
}

func TestClassifyCutoffs(t *testing.T) {
	sl := &StaticLoad{Count: 10}
	sl.Strides = histFrom(map[int64]float64{8: 10})
	if c := Classify(sl); c.Category != CatStride {
		t.Errorf("single stride -> %v", c.Category)
	}
	sl.Strides = histFrom(map[int64]float64{8: 5, 16: 5})
	if c := Classify(sl); c.Category != CatFilter2 || len(c.Strides) != 2 {
		t.Errorf("two equal strides -> %v %v", c.Category, c.Strides)
	}
	sl.Strides = histFrom(map[int64]float64{1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1})
	if c := Classify(sl); c.Category != CatRandom {
		t.Errorf("uniform strides -> %v", c.Category)
	}
	unique := &StaticLoad{Count: 1, Strides: histFrom(nil)}
	if c := Classify(unique); c.Category != CatUnique {
		t.Errorf("unique -> %v", c.Category)
	}
}

func histFrom(m map[int64]float64) *stats.Histogram {
	h := stats.NewHistogram()
	for k, v := range m {
		h.AddWeighted(k, v)
	}
	return h
}

// TestRunDeterministic profiles every catalog workload twice and requires
// byte-identical profile JSON: an unchanged stream must keep its store
// digest, and the model must see the same inputs on every run. It also pins
// the bytes themselves: each workload's profile under each of
// digestOptions must hash to its entry in runDigests.
func TestRunDeterministic(t *testing.T) {
	for _, s := range catalogStreams() {
		want, ok := runDigests[s.Name]
		if !ok {
			t.Errorf("%s: no digests recorded", s.Name)
		}
		for k, o := range digestOptions {
			first, err := json.Marshal(Run(s, o))
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(first); ok && hex.EncodeToString(sum[:]) != want[k] {
				t.Errorf("%s, options %+v: profile digest %x, want %s", s.Name, o, sum, want[k])
			}
			if k > 0 {
				continue
			}
			second, err := json.Marshal(Run(s, o))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Errorf("%s: two profilings of one stream differ", s.Name)
			}
		}
	}
}

// digestOptions are the profiling options runDigests pins: the defaults,
// 20 short micro-traces, one long one, and an unsorted ROB list with a
// repeated size.
var digestOptions = []Options{
	{},
	{MicroUops: 100, WindowUops: 1000},
	{MicroUops: 2500},
	{ROBs: []int{256, 16, 16, 100, 1}},
}

// runDigests[w][k] is the hex sha256 of json.Marshal(Run(s, digestOptions[k]))
// for catalog workload w at 20k uops (seed 0). A change to any profiled
// statistic changes these bytes; such a change must say which statistic
// moved and why, and re-record the table.
var runDigests = map[string][4]string{
	"astar": {
		"f4a70b5d4408108cbf0175081a5f4b5921a65a4cc2c215a259e9cd05c9e01c74",
		"4ca7d1d380acfd9ecb0a71f76296dc68a379e093f7a4bfc928735156139c4f52",
		"3269adc4c3ab906405d3fe30242b02a17ef63ebcff3ef99460f397cc026ef247",
		"ddd6ad66ce30b3cb0e58a4187ca2a3091e5a3c85fcedadcc6762b6a1736d29f2",
	},
	"bwaves": {
		"e315adb4724de1de62dd2fdd4dda7ea3af667dfccb180ea537353c818084d339",
		"b929f321051ca9e42bee3946b5d78be8d6dd5c5cf8def64540ab66fc43a9221e",
		"1f8f9496fd481d31012289ea6383b0e6ecd6c0132d72de5990980b4572907e7a",
		"2176466e4d31100dfa2ca3b3ff4fb42dd5d92cdaa925d54fd960daa289398077",
	},
	"bzip2": {
		"dc676618f95b39ebe0f4ff98216893ef95a9dafeb4a611d1b00c51c72afff73f",
		"321493023a74e405489adaf27ba78bed2e49813869eeabc4a3686f15ec03ec1d",
		"fe00b5ba2d7681a145fa0a1dd30ffd3adadcae7284badcd69e3940570bc8f9ce",
		"db74b19676f4f19f8fdc91a9c8e360532f1cf8619b8e772e718b49bcce76cde6",
	},
	"cactusADM": {
		"ff68eb2ea0bbdb2f15276475ae053061bfed0ea0cf53a2fd1ba9495dd94d0578",
		"715bd1d62b48f7edbe78b3129cc21979fc5d45ed74a64325dba871d4c1736a10",
		"db2e1d55698a5c864a2da3a43f319edf9dd614b5f8317891bd967f148f996b29",
		"fc78c039f2f507efc70c6859e0f958a33cec36dcce36965e0adf561df4b4704b",
	},
	"calculix": {
		"5383a07a418821adadb6907f112c72138efbdebb9d3ae34bdbc86134da411c8a",
		"eb536c08fb3fbc9d313db2ed2e6d21f311a55ba9ee6321d85f8fb96ac839be39",
		"e1661316b42eaf63b0022ce7a58b69e5c1a138c2c43dce14ddc9899488773b5d",
		"9c34f3b717789e425319859de76692ab89631f34f5e9a0ee52a233f2a5bc95e4",
	},
	"dealII": {
		"70a385e20895ff219e400eafd44ab7b9ba6370259d1298caf233d144763efcf7",
		"3ee2bd33811e878d7b303cc960b4e9478f3a534bf02e9a78dfc29b2cba3e8292",
		"2c1ed2e79f48a4289125dea6faf5868c98c1c9689bffb11d6bbac7ace94f2207",
		"83ddf1744f038019025a14e61ccb2cea5f94e97f1548f3d9c7953184cb73843c",
	},
	"gamess": {
		"840b9519da5ee70abd56d3204753374515ff03efb80b57e917fc962b7134f182",
		"30046c5dff5a99182f7cf4d736a927d5feee764d6051b72f7846535299adbfbd",
		"5751df47718c159fd084e3e38f6677a501bfbde5c51ef32864648dff7f0b2468",
		"877eb2713f3566fcbd1f18478543dbc02656ce73496250579c3b13d1bfd3d373",
	},
	"gcc": {
		"6b5a6c2b388722ff0cc7b2475343b7d597b1803c60e1c37f5d8dc14ae6bc4159",
		"619965559069b90352bb6f1fe0930f9c4acf2b9b02e3047f13a807e169ec3a67",
		"8fa3f09c2acefdcf74f331b3d6d3245442d1eeace7440c7e6ed1c6f4d4f5a2b6",
		"c2c6a4ea0ecb1f15f1da8e4bf92f5711cb277b759ea35bfd6470f8fbb0247f8e",
	},
	"GemsFDTD": {
		"79ad3afb7b76cad426bbba4459e8e96c9e6f15d6a3dc52ce5b2c7a1ffba43b2c",
		"42ab9f31871e26f53c9c3cec6e145644605e26377eb73da77b9739b34bcadec5",
		"7d28add9c8dd5fa8e3e61fcff03c754d67b7f72426616968270b06b5ac3b4048",
		"c7b5305cd0b919dc1304652e6f26f9a243bba7ff56043976be79c926b009b09b",
	},
	"gobmk": {
		"4a8082b2a6bfe09575029773aaea9a56408bc1aa583dd51a5e0565203d75c58c",
		"13b96aae2dd97d2185b4af4d70a42e1bb02b4ef230da5904ec34f7e59a602459",
		"f685214901f789ea039fd8917c13f48785521b3dcca5a147a89003fc69e63470",
		"db9230092019fe98eb1ee25a126a3a18f13aa0452ed833642643d298ea0ed610",
	},
	"gromacs": {
		"b54c33da79d7907de6fe9b201afee755da6274a59894882e06feee44f418acae",
		"3dde16da1a7029ad0a01cb2dfaffda8501c187a9b2ed6751777bfffad3312cb1",
		"d24c95f47259793bcc67af561eef9617d85b4ed4d01d5c0bc787e7004138d6ae",
		"fde696c571d9f2e902fc0ff0a2e6c2816b8c6b16d5bacaacb8a5a9aae81be346",
	},
	"h264ref": {
		"9dad0be7ed125fb95c87f49280248440e1c6e2efddb70265148d48846f1e879f",
		"669137c964c1cb8cb775a3af7026097c4823c6336c5643bca2a40f61aa59344d",
		"cc68805d39078fd985ad7f16fb87987a4fd1301df47fb09d9bfc8c74c1b510cc",
		"9a572f8d06f5c3ee340869956f8bc9aa525e97f00f66474351fcc616041e21e4",
	},
	"hmmer": {
		"8c979658c2513da4849ea65ac660d897aba8e8dba331fa1ad049d43683a7bba0",
		"38084cf2b5f7bc5c2562cf652a13ec1a18a1330cb4ff7d40d62716694a4046f8",
		"5125d0e94206f5811c5e476ac55e5003b598be07311bb5d876e38dbfca712258",
		"5a4ff24a5f433a156e8a23bacd920a0dad529887e8e6b0e6b3dc01e187d5af39",
	},
	"lbm": {
		"ff700c33b18ab304f219f5ba808a219ad9617066420cbfe3a64e8bc35fb1bd47",
		"889811f3b5c036f7223b3cfda7e380ff764c8bee16948d244fab30f28ceaadf4",
		"71c0e4c4f2a6c9cd893bd8efd99b5528c6fa427e89e1b34bc4d0079592c0d1d3",
		"5c21e7c2e35a5462e05986edeae761d64d97d76283dd9066361dde7da28230af",
	},
	"leslie3d": {
		"e6eb9410d37fff87031e9a4170c4bd88c2e3135f55830e30da6de815719bdb04",
		"019a5bbb09de3bcc7a366f215ac306ec9bff40af3823d645584fa31b2cfe08b4",
		"375524186ecc7f96c820a768aaa7c5a5dcfe470c43a990396cc6c2cbd14b901f",
		"3bb379b2dbc0f90071b6125f270e4cf782c3e654f994902cffadc9160dcac9df",
	},
	"libquantum": {
		"f3f2360bed51640c4e5b1462b14e2591534bcf798fab608e3d4de075c5db4e66",
		"7158de1898e820c815ae5b2092d64834b960ba955e9b0fc0f71d6762185dbb8c",
		"9b733700e94f0f45e769eac3ff98e11173ff99f95ec3605be6fff0fa5d785376",
		"dfbd6b6ec783e58141507022f38193cf5a500c2c0ab0822721b53d32a07072c1",
	},
	"mcf": {
		"77ed2db4cdfa7dc49cff911669bc9bfd1a99359e9703f148960167e983543bf8",
		"81c784aeecee5423e90539107abdc116018df0cbd9a2af595df9de8feb04a180",
		"09b5864f5da7074cb469ca204ac148df8a6b068051e800fb3ea91467c6c8d0a8",
		"56f9c883d7006b1bdd7b481f27a58c28327ca173e6429192a55a8612e719df11",
	},
	"milc": {
		"ee64f7034113686c56bc0079a5df684200b7af895ea039f4d84d81d7edfb879d",
		"a375212ede28bb433f51edc33dc3a72b078a64bb34b679f45d3f79fb9b2995f3",
		"974a6bc48a6dccd9464fbb399577f6dd7286876bf29297ff26ac213faf9321e3",
		"32e27ffb95f4bf487f36eb40dc5a2031c1e19efe46fce26e54015f264192d36a",
	},
	"namd": {
		"5dded91efbc420487a2470294e3857b106078d92a2950a21461d4cc4a6768128",
		"9d6336e09300df9cbd916374a21d1f61a23ccf254043ef639cd2d73b5d1ad673",
		"4d933cf232942b9992f6775b9bd22eef859b289b1f0a7b7e4fb0b2a902ed8be0",
		"12f9a94b74630a35e29a68c6944185ea5cb6af1de3a1caa4d4f58cce12aae975",
	},
	"omnetpp": {
		"d40897595e4edef01c3fca87e734ecbdf2b0ef2e66fbbc6992514aaa1595b064",
		"9344459e0c3b60e94447ce43d6263f87c0b5b2ce2a560aad5a4e32394f93bc34",
		"859a77a656575f4b8b8b51aeab1a5642064439273ebf4a8a53f5759817ff9812",
		"097e47517dff37af8b21ecf94bf91bf9e5cabed3ff43bf2ae10c314924fece09",
	},
	"perlbench": {
		"0c364c317d60d00ea789a800f63e08dd4ff9d93c0387e844339624ee32755f21",
		"c3b82515a24360dd7c220b6b9942ff669aa0ddda8812f61e0f10295c4541e25b",
		"86b5ead326f92cc3663fd137271d2570a45694b41ee1cabf8fb2cede81526fa8",
		"9b323b46be88e6a0b50187682d8fef9ee01a7d478e0e76e7202fb2263f092719",
	},
	"povray": {
		"79745c43b22c7df3849f20ad8e92b36627978aa360a215df8b759db1fe14eea5",
		"d2c04363b174f6f687acbe95e16f8fdcf0d9a34516aa89ca99c39ea8dc3c5126",
		"592084c9585402a47930b5e3f37cad2915de6138d0573e90c89ee6071d7c9508",
		"633db9c1ffd8fa00e66d4e2eea6f4f95c0a7e95b135cbff87ed73e54686dac95",
	},
	"sjeng": {
		"29c9f64cecf923ef580bd4ddaaa3582cd888a827a2d69e249b8577c4a30d978b",
		"be029d52b662c4eeb22f2bffb05c52204cac7bcfcada311cd6e431e9a1ef2b5d",
		"5f3d55eea2c41b5c232b8b26ab32b9ee1aa5ff2e8dbed0c4995c8cb205f8c3b3",
		"25bbe2b51e656c5313b87c98c1fa5dc4e884cf4cf624d383ba3172eaa4097e59",
	},
	"soplex": {
		"583a6270295751e93d75e344a79f3d873143049f53f1468bc447d7c5289ad2b6",
		"b6686ad70bb940b64430657dc7c081b6f2ad8e44ca8615968c0f9c154085173e",
		"10ca01e3cba8da99347901bdfbf256fa2a9223aaf4b0efe9f99384e1703cdf5f",
		"628609c8c14cf54292ddf02659f3f6a8715899fc1deba52df6e5c2e902e06a19",
	},
	"sphinx3": {
		"2dd68bc3b138b5b54a24baf5c8acf0c21ecca1e29d8bde3179862f9e33394be4",
		"7de9c8f84240b5aff5afecf3f10f73601305dfd39f3231baf3a6ba34be34c819",
		"3b21ec8bb12f28f855dcff24c3531ce116046f10f4514a876b8347379310b578",
		"2af69828e36b83513fb1f0111a8bf0014d1e2bab581edf026966ad630f42b124",
	},
	"tonto": {
		"08c87606188daee686935bf645eda321607f1f9d830682b473cddc3f89f7bc6b",
		"eaa7838e233a7ce7940d35f35e5aa6274b56699a51994b32d50ac470007603d1",
		"9aa25742835165ecbd6708960ad382c654e9472f3bd5d5606069094e5bbf7b19",
		"607231dfe8a582ccaf9cf1468851d89279c46ed09fae6f436f68be409388f7a6",
	},
	"wrf": {
		"7006429a93bb06adacc73041ab99be4fff915c859a40b1aa774cd50efe11d0a7",
		"ea617f759345223ec38f3fb93e01f7d1d59fc69a904a47783f10621a07d47c18",
		"1448bcf1421b956f8dd15edc9af9d6cf2b0d640b74886293706c6caff56fa3a9",
		"441f976bcac3b6390593b9371763dc4ae2360c2fb12e06dcde23cd5bccb0afa3",
	},
	"xalancbmk": {
		"1056415cf18fe47dc390cba22009324bc3829e672d5cb95afe660deac392132b",
		"2f1bc89bbc6367ef0d84a264dc437bac3c3fc9d839384b7bf31de341efbc9fc8",
		"541524fb9705b070a8efd624632813cbc0a77d30a1eb0a76fe822d5168207425",
		"1ba2c37b0bbb9413920ba087fb6224083892211c40bcc7da62e64042293ba488",
	},
	"zeusmp": {
		"4828261bc28fac692f2ebbbe53d061171de874b57c671db3fca1ce0c1a7fceb7",
		"b0d72ba2a5c13e29658689571a82b8149a44797661124266f33ec1929db02478",
		"586f9223234dd6707f1deefb23ca7238db9a688f08cb93d053229bfd05c7f36b",
		"deb066f2db4d90718fdfaec9642b3ad3eb91402829765db6e2d60d5e02d0fe2c",
	},
}
