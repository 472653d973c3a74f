package main

import (
	"fmt"

	"censuslink/internal/census"
	"censuslink/internal/linkage"
)

// F1 floors at the reference scales (see README). Tiny test scales skip them.
const (
	recordF1Floor = 0.70
	groupF1Floor  = 0.55
)

// truth is the ground truth of one census pair, built from truth_id alone:
// two records are the same person when they share a non-empty truth_id, and
// two households are linked when they share at least one true member.
type truth struct {
	records map[linkage.Pair]bool
	groups  map[linkage.GroupPair]bool
}

func buildTruth(old, new *census.Dataset) truth {
	t := truth{records: map[linkage.Pair]bool{}, groups: map[linkage.GroupPair]bool{}}
	byTruth := make(map[string][]*census.Record)
	for _, r := range old.Records() {
		if r.TruthID != "" {
			byTruth[r.TruthID] = append(byTruth[r.TruthID], r)
		}
	}
	for _, n := range new.Records() {
		if n.TruthID == "" {
			continue
		}
		for _, o := range byTruth[n.TruthID] {
			t.records[linkage.Pair{Old: o.ID, New: n.ID}] = true
			t.groups[linkage.GroupPair{Old: o.HouseholdID, New: n.HouseholdID}] = true
		}
	}
	return t
}

// confusion counts true positives, predictions and truths; it sums over
// pairs so a workload's F1 pools all of its linked pairs.
type confusion struct{ tp, predicted, actual int }

func (c *confusion) add(o confusion) {
	c.tp += o.tp
	c.predicted += o.predicted
	c.actual += o.actual
}

func (c confusion) f1() float64 {
	if c.predicted == 0 || c.actual == 0 || c.tp == 0 {
		return 0
	}
	p := float64(c.tp) / float64(c.predicted)
	r := float64(c.tp) / float64(c.actual)
	return 2 * p * r / (p + r)
}

// quality scores one result against the truth.
func quality(res *linkage.Result, t truth) (records, groups confusion) {
	records = confusion{predicted: len(res.RecordLinks), actual: len(t.records)}
	for _, l := range res.RecordLinks {
		if t.records[linkage.Pair{Old: l.Old, New: l.New}] {
			records.tp++
		}
	}
	seen := make(map[linkage.GroupPair]bool, len(res.GroupLinks))
	for _, g := range res.GroupLinks {
		gp := linkage.GroupPair{Old: g.Old, New: g.New}
		if seen[gp] {
			continue
		}
		seen[gp] = true
		groups.predicted++
		if t.groups[gp] {
			groups.tp++
		}
	}
	groups.actual = len(t.groups)
	return records, groups
}

// invariants lists every property of Algorithm 1 that res violates:
// the 1:1 record mapping, record links lying inside a returned group link,
// every group link induced by a record link, and remainder links scoring at
// least the remainder threshold.
func invariants(res *linkage.Result, old, new *census.Dataset, remDelta float64) []string {
	var bad []string
	report := func(format string, args ...any) {
		if len(bad) < 5 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	groups := make(map[linkage.GroupPair]bool, len(res.GroupLinks))
	for _, g := range res.GroupLinks {
		groups[linkage.GroupPair{Old: g.Old, New: g.New}] = true
	}
	induced := make(map[linkage.GroupPair]bool, len(groups))
	oldSeen := make(map[string]bool, len(res.RecordLinks))
	newSeen := make(map[string]bool, len(res.RecordLinks))
	for _, l := range res.RecordLinks {
		if oldSeen[l.Old] || newSeen[l.New] {
			report("record mapping not 1:1 at %s -> %s", l.Old, l.New)
		}
		oldSeen[l.Old], newSeen[l.New] = true, true
		o, n := old.Record(l.Old), new.Record(l.New)
		if o == nil || n == nil {
			report("record link %s -> %s names an unknown record", l.Old, l.New)
			continue
		}
		gp := linkage.GroupPair{Old: o.HouseholdID, New: n.HouseholdID}
		if !groups[gp] {
			report("record link %s -> %s lies outside every group link", l.Old, l.New)
		}
		induced[gp] = true
		if src, ok := res.Sources[linkage.Pair{Old: l.Old, New: l.New}]; ok &&
			src.Kind == linkage.SourceRemainder && l.Sim < remDelta {
			report("remainder link %s -> %s scores %.4f below δ %.2f", l.Old, l.New, l.Sim, remDelta)
		}
	}
	for gp := range groups {
		if !induced[gp] {
			report("group link %s -> %s is induced by no record link", gp.Old, gp.New)
		}
	}
	return bad
}

// servedRecord is one record link as the server serves it.
type servedRecord struct {
	Old    string  `json:"old"`
	New    string  `json:"new"`
	Sim    float64 `json:"sim"`
	Source *struct {
		Kind string `json:"kind"`
	} `json:"source"`
}

// sameLinks compares the links a server served for one pair with a direct
// LinkContext result on that pair, element by element and in order.
func sameLinks(ref *linkage.Result, records []servedRecord, groups []linkage.GroupLink) error {
	if len(records) != len(ref.RecordLinks) {
		return fmt.Errorf("served %d record links, direct linkage has %d", len(records), len(ref.RecordLinks))
	}
	for i, l := range ref.RecordLinks {
		s := records[i]
		if s.Old != l.Old || s.New != l.New || s.Sim != l.Sim {
			return fmt.Errorf("record link %d: served %s -> %s (%v), direct %s -> %s (%v)",
				i, s.Old, s.New, s.Sim, l.Old, l.New, l.Sim)
		}
		src, ok := ref.Sources[linkage.Pair{Old: l.Old, New: l.New}]
		if ok != (s.Source != nil) || ok && s.Source.Kind != src.Kind.String() {
			return fmt.Errorf("record link %s -> %s: served provenance differs from direct linkage", l.Old, l.New)
		}
	}
	if len(groups) != len(ref.GroupLinks) {
		return fmt.Errorf("served %d group links, direct linkage has %d", len(groups), len(ref.GroupLinks))
	}
	for i, g := range ref.GroupLinks {
		if groups[i] != g {
			return fmt.Errorf("group link %d: served %s -> %s, direct %s -> %s", i, groups[i].Old, groups[i].New, g.Old, g.New)
		}
	}
	return nil
}

// sameResult compares two library results link for link.
func sameResult(a, b *linkage.Result) error {
	recs := make([]servedRecord, len(a.RecordLinks))
	for i, l := range a.RecordLinks {
		recs[i] = servedRecord{Old: l.Old, New: l.New, Sim: l.Sim}
		if src, ok := a.Sources[linkage.Pair{Old: l.Old, New: l.New}]; ok {
			recs[i].Source = &struct {
				Kind string `json:"kind"`
			}{Kind: src.Kind.String()}
		}
	}
	return sameLinks(b, recs, a.GroupLinks)
}
