package script

import (
	"fmt"
	"strings"
	"testing"

	"pim/internal/topology"
)

const rendezvousScript = `
# Figure 3 rendezvous as a script.
topo edges 0-1 1-2 2-3
unicast oracle
group G0 rp r2
protocol pim-sm
host recv r0
host send r3
at 1s join recv G0
at 3s send send G0 count=5 every=1s
run 20s
expect recv received G0 >= 4
expect router r1 state >= 1
expect links-with-data >= 3
`

func TestRendezvousScript(t *testing.T) {
	s, err := Parse(rendezvousScript)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
	if res.Delivered["recv/G0"] < 4 {
		t.Errorf("delivered map: %v", res.Delivered)
	}
	if len(res.Log) == 0 {
		t.Error("no deployment log")
	}
}

func TestFailedExpectationReported(t *testing.T) {
	s, err := Parse(strings.Replace(rendezvousScript,
		"expect recv received G0 >= 4",
		"expect recv received G0 == 999", 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("impossible expectation passed")
	}
	if !strings.Contains(res.Failures[0], "recv received G0") {
		t.Errorf("failure text: %q", res.Failures[0])
	}
}

func TestLinkFailureScript(t *testing.T) {
	src := `
topo edges 0-1 1-3 0-2:3 2-3:3
unicast oracle
group G0 rp r3
protocol pim-sm spt=never
host recv r0
host send r3
at 1s join recv G0
at 3s send send G0 count=20 every=1s
at 8s linkdown 0
run 40s
expect recv received G0 >= 15
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
}

func TestAllProtocolsRunnable(t *testing.T) {
	for _, proto := range []string{"pim-sm", "pim-sm spt=never", "pim-sm aggregate",
		"pim-dm prune=300s", "dvmrp prune=300s", "cbt", "mospf"} {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			src := `
topo edges 0-1 1-2
unicast oracle
group G0 rp r1
protocol ` + proto + `
host recv r0
host send r2
at 1s join recv G0
at 3s send send G0 count=4 every=1s
run 15s
expect recv received G0 >= 3
`
			s, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.RunWith(RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("failures: %v", res.Failures)
			}
		})
	}
}

func TestUnicastModesInScripts(t *testing.T) {
	for _, mode := range []string{"oracle", "dv", "ls"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			src := `
topo edges 0-1 1-2
unicast ` + mode + `
group G0 rp r1
protocol pim-sm
host recv r0
host send r2
at 1s join recv G0
at 3s send send G0 count=4 every=1s
run 15s
expect recv received G0 >= 3
`
			s, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.RunWith(RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("failures: %v", res.Failures)
			}
		})
	}
}

func TestRandomTopoAndLeave(t *testing.T) {
	src := `
topo random nodes=20 degree=4 seed=5
unicast oracle
group G0 rp r0
protocol pim-sm
host a r3
host b r17
at 1s join a G0
at 1s join b G0
at 3s send a G0 count=3 every=1s
at 10s leave b G0
run 300s
expect a received G0 >= 0
expect router r3 state >= 1
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"frobnicate\n",
		"topo bogus\n",
		"topo edges x-y\n",
		"topo edges 0-0\n",
		"topo edges 0-1:0\n",
	}
	for _, src := range cases {
		if s, err := Parse(src); err == nil {
			if _, err := s.RunWith(RunConfig{}); err == nil {
				t.Errorf("script %q ran without error", src)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := []string{
		"unicast bogus\n",
		"host h r0\n", // host before topo
		"topo edges 0-1\nprotocol nosuch\n",
		"topo edges 0-1\ngroup G0\nprotocol pim-sm\nat 1s join nosuch G0\n",
		"topo edges 0-1\nprotocol pim-sm\nexpect router r9 state >= 1\n",
		"topo edges 0-1\nprotocol pim-sm\nrun 1x\n",
		"topo edges 0-1\ngroup G0 rp r7\n",
		"at 1s join h G0\n", // at before protocol
	}
	for _, src := range cases {
		s, err := Parse(src)
		if err != nil {
			continue // parse-time rejection also acceptable
		}
		if _, err := s.RunWith(RunConfig{}); err == nil {
			t.Errorf("script %q ran without error", src)
		}
	}
}

// TestTopoRejectsOversizedNodes pins the node bound on script topologies: an
// edge endpoint or a random node count above topology.MaxEdgeListNode is a
// script error, before anything is allocated for it.
func TestTopoRejectsOversizedNodes(t *testing.T) {
	for _, src := range []string{
		"topo edges 0-9223372036854775807\n",
		fmt.Sprintf("topo edges 0-1 1-%d\n", topology.MaxEdgeListNode+1),
		fmt.Sprintf("topo random nodes=%d\n", topology.MaxEdgeListNode+1),
		"topo random nodes=9223372036854775807\n",
	} {
		s, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: parse: %v", src, err)
		}
		if _, err := s.RunWith(RunConfig{}); err == nil || !strings.Contains(err.Error(), "above the limit") {
			t.Errorf("%q: err = %v, want the node-limit rejection", src, err)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64 // microseconds
	}{
		{"150ms", 150_000},
		{"2s", 2_000_000},
		{"1m", 60_000_000},
		{"3", 3_000_000},
		{"0.5s", 500_000},
	} {
		got, err := parseDuration(tc.in)
		if err != nil || int64(got) != tc.want {
			t.Errorf("parseDuration(%q) = %v, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "x", "-1s"} {
		if _, err := parseDuration(bad); err == nil {
			t.Errorf("parseDuration(%q) succeeded", bad)
		}
	}
}

func TestInteropScript(t *testing.T) {
	src := `
# sparse 0-1, border 2, dense 3-4 (the §4 splice)
topo edges 0-1 1-2 2-3 3-4
unicast oracle
group G0 rp r0
protocol pim-sm dense=3,4 prune=300s
host sparse r1
host deep r4
at 1s join deep G0
at 4s send sparse G0 count=5 every=1s
run 20s
expect deep received G0 >= 4
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
}

func TestMeanDelayExpectation(t *testing.T) {
	src := `
topo edges 0-1:5 1-2:5
unicast oracle
group G0 rp r1
protocol pim-sm
host recv r0
host send r2
at 1s join recv G0
at 3s send send G0 count=5 every=1s
run 15s
expect recv mean-delay G0 <= 60ms
expect recv mean-delay G0 > 5ms
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
}

func TestMeanDelayNothingDelivered(t *testing.T) {
	src := `
topo edges 0-1
unicast oracle
group G0 rp r1
protocol pim-sm
host recv r0
run 5s
expect recv mean-delay G0 <= 1s
`
	s, _ := Parse(src)
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("mean-delay over zero deliveries should fail the expectation")
	}
}

func TestFaultVerbsScript(t *testing.T) {
	src := `
# Crash the mid-chain router under light control loss; delivery must
# resume after the restart with state rebuilt from refresh.
topo edges 0-1 1-2 2-3 1-4:2 4-3:2
unicast oracle
group G0 rp r3
protocol pim-sm
host send r0
host recv r3
at 1s join recv G0
at 3s send recv G0 count=1       # non-member source exercises register path too
at 3s send send G0 count=120 every=1s
at 10s loss all 0.05 control
at 30s crash r2
at 60s restart r2
at 80s loss all 0 control
run 200s
expect recv received G0 >= 60
expect router r2 state >= 1
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
}

func TestPartitionHealScript(t *testing.T) {
	src := `
topo edges 0-1 1-2
unicast oracle
group G0 rp r2
protocol pim-dm
host send r0
host recv r2
at 1s join recv G0
at 3s send send G0 count=60 every=1s
at 10s partition 1
at 40s heal
run 120s
expect recv received G0 >= 25
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
	// The 30s cut must actually have cost traffic.
	if res.Delivered["recv/G0"] >= 60 {
		t.Errorf("partition lost no packets: %v", res.Delivered)
	}
}

func TestFlapVerbScript(t *testing.T) {
	src := `
topo edges 0-1 1-2 0-2:5
unicast oracle
group G0 rp r2
protocol dvmrp
host send r0
host recv r2
at 1s join recv G0
at 3s send send G0 count=90 every=1s
at 20s flap 1 down=5s up=5s cycles=3
run 120s
expect recv received G0 >= 50
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
}

func TestFaultVerbErrors(t *testing.T) {
	cases := []string{
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nat 1s loss 9 0.5\n",
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nat 1s loss all 2.0\n",
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nat 1s loss all 0.5 bogus\n",
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nat 1s flap 9\n",
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nat 1s crash r9\n",
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nat 1s partition\n",
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nat 1s heal now\n",
		"topo edges 0-1 1-2\ngroup G0 rp r1\nprotocol pim-sm dense=2\nat 1s crash r1\n",
	}
	for _, src := range cases {
		s, err := Parse(src)
		if err != nil {
			continue
		}
		if _, err := s.RunWith(RunConfig{}); err == nil {
			t.Errorf("script %q ran without error", src)
		}
	}
}

func TestPartitionScenarioFile(t *testing.T) {
	s, err := ParseFile("../../scenarios/partition.pim")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
}
