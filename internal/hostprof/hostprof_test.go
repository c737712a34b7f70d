package hostprof

import (
	"strings"
	"testing"

	"prosper/internal/sim"
)

func cpuBuilder() *Builder {
	b := NewBuilder(
		ValueType{Type: "samples", Unit: "count"},
		ValueType{Type: "cpu", Unit: "nanoseconds"},
	)
	b.SetPeriod(ValueType{Type: "cpu", Unit: "nanoseconds"}, 10_000_000)
	b.SetTimes(1_700_000_000_000_000_000, 2_000_000_000)
	// Leaf-first stacks.
	b.Sample([]string{
		"prosper/internal/mem.(*Device).complete",
		"prosper/internal/sim.(*Engine).Step",
		"main.main",
	}, 3, 30_000_000)
	b.Sample([]string{
		"runtime.memmove",
		"prosper/internal/persist.(*prosperMech).copyRange",
		"prosper/internal/sim.(*Engine).Step",
	}, 2, 20_000_000)
	b.Sample([]string{
		"prosper/internal/cache.(*Cache).Access",
		"prosper/internal/machine.(*Core).step",
	}, 5, 50_000_000)
	return b
}

func TestParseRoundTrip(t *testing.T) {
	b := cpuBuilder()
	for _, data := range [][]byte{b.Encode(), b.EncodeGzip()} {
		p, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.SampleTypes) != 2 || p.SampleTypes[1] != (ValueType{Type: "cpu", Unit: "nanoseconds"}) {
			t.Fatalf("sample types = %+v", p.SampleTypes)
		}
		if p.Period != 10_000_000 || p.PeriodType.Type != "cpu" {
			t.Fatalf("period = %d %+v", p.Period, p.PeriodType)
		}
		if p.TimeNanos != 1_700_000_000_000_000_000 || p.DurationNanos != 2_000_000_000 {
			t.Fatalf("times = %d %d", p.TimeNanos, p.DurationNanos)
		}
		if len(p.Samples) != 3 {
			t.Fatalf("samples = %d", len(p.Samples))
		}
		stack := p.FuncStack(p.Samples[0])
		if len(stack) != 3 || stack[0] != "prosper/internal/mem.(*Device).complete" || stack[2] != "main.main" {
			t.Fatalf("stack = %v", stack)
		}
		if p.Samples[0].Values[1] != 30_000_000 {
			t.Fatalf("values = %v", p.Samples[0].Values)
		}
	}
}

func TestParseInlinedFrames(t *testing.T) {
	b := NewBuilder(ValueType{Type: "cpu", Unit: "nanoseconds"})
	b.SampleInlined(
		[]string{"prosper/internal/vm.(*TLB).Lookup", "prosper/internal/machine.(*walkOp).step"},
		[]string{"prosper/internal/sim.(*Engine).Step"},
		7)
	p, err := Parse(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	stack := p.FuncStack(p.Samples[0])
	want := []string{
		"prosper/internal/vm.(*TLB).Lookup",
		"prosper/internal/machine.(*walkOp).step",
		"prosper/internal/sim.(*Engine).Step",
	}
	if len(stack) != len(want) {
		t.Fatalf("stack = %v", stack)
	}
	for i := range want {
		if stack[i] != want[i] {
			t.Fatalf("stack[%d] = %q, want %q", i, stack[i], want[i])
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	good := cpuBuilder().EncodeGzip()
	cases := map[string][]byte{
		"empty":            {},
		"truncated gzip":   good[:len(good)/2],
		"bad gzip header":  {0x1f, 0x8b, 0xff, 0xff},
		"not a profile":    []byte("definitely not protobuf \xff\xff\xff\xff"),
		"truncated varint": {0x08, 0x80},
	}
	raw := cpuBuilder().Encode()
	cases["truncated protobuf"] = raw[:len(raw)-3]
	for name, data := range cases {
		if _, err := Parse(data); err == nil {
			t.Errorf("%s: Parse accepted malformed input", name)
		}
	}
}

func TestParseRejectsBadStringIndex(t *testing.T) {
	// A sample_type whose type index points past the string table.
	var b Builder
	_ = b
	bad := []byte{
		// field 1 (sample_type), bytes, len 4: {field1 varint 99, field2 varint 0}
		0x0a, 0x04, 0x08, 99, 0x10, 0x00,
		// field 6 (string_table): ""
		0x32, 0x00,
	}
	if _, err := Parse(bad); err == nil || !strings.Contains(err.Error(), "string table index") {
		t.Fatalf("want string-table error, got %v", err)
	}
}

func TestParseRejectsValueCountMismatch(t *testing.T) {
	b := NewBuilder(ValueType{Type: "cpu", Unit: "nanoseconds"})
	b.Sample([]string{"main.main"}, 1, 2) // two values, one sample type
	if _, err := Parse(b.Encode()); err == nil || !strings.Contains(err.Error(), "values") {
		t.Fatalf("want value-count error, got %v", err)
	}
}

func TestComponentOf(t *testing.T) {
	cases := map[string]sim.Component{
		"prosper/internal/mem.(*Device).complete":      sim.CompMem,
		"prosper/internal/cache.(*Cache).Access":       sim.CompCache,
		"prosper/internal/vm.(*TLB).Lookup":            sim.CompVM,
		"prosper/internal/kernel.(*Kernel).step":       sim.CompKernel,
		"prosper/internal/prosper.(*Tracker).Store":    sim.CompProsper,
		"prosper/internal/persist.(*prosperMech).ckpt": sim.CompPersist,
		"prosper/internal/machine.(*Core).step":        sim.CompWorkload,
		"prosper/internal/workload.(*gapbsPR).Next":    sim.CompWorkload,
		"prosper/internal/sim.(*Engine).Step":          sim.CompSim,
		"prosper/internal/runner.(*Executor).Run":      sim.CompSim,
		"prosper/internal/telemetry.(*Tracer).Begin":   sim.CompSim,
		"prosper/internal/stats.(*Histogram).Observe":  sim.CompSim,
		"prosper/internal/experiments.DefaultScale":    sim.CompSim,
		"main.main":                                 sim.CompSim,
		"runtime.mallocgc":                          sim.CompOther,
		"runtime.memmove":                           sim.CompOther,
		"compress/flate.(*compressor).deflate":      sim.CompOther,
		"github.com/other/dep.F":                    sim.CompOther,
		"prosper/internal/sim.(*Engine).Step.func1": sim.CompSim,
		"prosper/internal/mem.glob..func1":          sim.CompMem,
	}
	for name, want := range cases {
		if got := ComponentOf(name); got != want {
			t.Errorf("ComponentOf(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestAttributeFlatAndCum(t *testing.T) {
	b := cpuBuilder()
	p, err := Parse(b.EncodeGzip())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Attribute(p, -1)
	if err != nil {
		t.Fatal(err)
	}
	if a.SampleType.Type != "cpu" {
		t.Fatalf("picked sample type %+v, want cpu", a.SampleType)
	}
	if a.Total != 100_000_000 || a.SampleN != 3 {
		t.Fatalf("total = %d over %d", a.Total, a.SampleN)
	}
	// Flat: sample 1 leaf mem, sample 2 leaf runtime.memmove (other),
	// sample 3 leaf cache.
	if a.Flat[sim.CompMem] != 30_000_000 || a.Flat[sim.CompOther] != 20_000_000 || a.Flat[sim.CompCache] != 50_000_000 {
		t.Fatalf("flat = %v", a.Flat)
	}
	// Cum: sim appears on samples 1+2 (engine Step frames), persist on
	// sample 2, workload on sample 3.
	if a.Cum[sim.CompSim] != 50_000_000 {
		t.Fatalf("cum sim = %d", a.Cum[sim.CompSim])
	}
	if a.Cum[sim.CompPersist] != 20_000_000 {
		t.Fatalf("cum persist = %d", a.Cum[sim.CompPersist])
	}
	if a.Cum[sim.CompWorkload] != 50_000_000 {
		t.Fatalf("cum workload = %d", a.Cum[sim.CompWorkload])
	}
	// Flat sums to total; every cum entry <= total.
	var flatSum int64
	for c, v := range a.Flat {
		flatSum += v
		if a.Cum[c] > a.Total {
			t.Fatalf("cum[%d] = %d exceeds total", c, a.Cum[c])
		}
	}
	if flatSum != a.Total {
		t.Fatalf("flat sums to %d, want %d", flatSum, a.Total)
	}
}

func TestAttributeSampleTypeSelection(t *testing.T) {
	p, err := Parse(cpuBuilder().Encode())
	if err != nil {
		t.Fatal(err)
	}
	if idx := p.SampleTypeIndex("samples"); idx != 0 {
		t.Fatalf("SampleTypeIndex(samples) = %d", idx)
	}
	if idx := p.SampleTypeIndex("nope"); idx != -1 {
		t.Fatalf("SampleTypeIndex(nope) = %d", idx)
	}
	a, err := Attribute(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != 10 { // 3+2+5 sample counts
		t.Fatalf("total = %d, want 10", a.Total)
	}
	if _, err := Attribute(p, 5); err == nil {
		t.Fatal("want error for out-of-range value index")
	}
}

func TestTableAndJSONDeterministic(t *testing.T) {
	p, err := Parse(cpuBuilder().EncodeGzip())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Attribute(p, -1)
	if err != nil {
		t.Fatal(err)
	}
	tbl := a.Table()
	if !strings.Contains(tbl, "sample type: cpu/nanoseconds, total 100000000 over 3 samples") {
		t.Fatalf("table header wrong:\n%s", tbl)
	}
	// Rows sorted by flat descending: cache (50M) first.
	lines := strings.Split(strings.TrimSpace(tbl), "\n")
	if !strings.HasPrefix(lines[2], "cache") {
		t.Fatalf("first row should be cache:\n%s", tbl)
	}
	js, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		js2, _ := a.JSON()
		if string(js2) != string(js) {
			t.Fatal("JSON output not byte-stable")
		}
		if a.Table() != tbl {
			t.Fatal("table output not byte-stable")
		}
	}
	if !strings.Contains(string(js), `"component": "cache"`) || !strings.Contains(string(js), `"flat": 50000000`) {
		t.Fatalf("json missing cache row:\n%s", js)
	}
}

func TestBuilderDeterministic(t *testing.T) {
	a := cpuBuilder().EncodeGzip()
	b := cpuBuilder().EncodeGzip()
	if string(a) != string(b) {
		t.Fatal("identical build sequences produced different bytes")
	}
}
