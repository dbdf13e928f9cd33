package telemetry

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/migration"
)

// WriteProm renders a set of per-node snapshots as Prometheus text
// exposition (version 0.0.4): one # HELP / # TYPE header per family,
// every series labeled with its node (plus the snapshot's common
// labels, e.g. policy), histograms rendered as cumulative
// _bucket/_sum/_count series with an additional node="cluster" merge,
// and the top-K sketch and migration-decision counters as their own
// families.
//
// Histogram caveat: stats.Hist stores log2 buckets only, so _sum is
// the upper-bound estimate obtained by charging every sample its
// bucket's upper bound.
func WriteProm(w io.Writer, snaps []Snapshot) error {
	ordered := append([]Snapshot(nil), snaps...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Node < ordered[j].Node })

	ew := &errWriter{w: w}
	writeScalars(ew, ordered)
	writeHists(ew, ordered)
	writeTopK(ew, ordered)
	writeDecisions(ew, ordered)
	return ew.err
}

// errWriter latches the first write error so the renderers stay flat.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// labels joins the node label, a snapshot's common fragment, and a
// per-series fragment into one label set.
func labels(node string, common, extra string) string {
	out := `node="` + node + `"`
	if common != "" {
		out += "," + common
	}
	if extra != "" {
		out += "," + extra
	}
	return "{" + out + "}"
}

func nodeLabel(n int) string { return fmt.Sprintf("%d", n) }

// family groups every snapshot's series of one metric name.
type family struct {
	name string
	help string
	kind Kind
}

// scalarFamilies returns the distinct scalar families across all
// snapshots in first-seen order (snapshots are already node-sorted, so
// the order is deterministic for a given cluster view).
func scalarFamilies(snaps []Snapshot) []family {
	var fams []family
	seen := map[string]bool{}
	for _, s := range snaps {
		for _, sm := range s.Samples {
			if !seen[sm.Name] {
				seen[sm.Name] = true
				fams = append(fams, family{name: sm.Name, help: sm.Help, kind: sm.Kind})
			}
		}
	}
	return fams
}

func writeScalars(ew *errWriter, snaps []Snapshot) {
	for _, fam := range scalarFamilies(snaps) {
		ew.printf("# HELP %s %s\n# TYPE %s %s\n", fam.name, fam.help, fam.name, fam.kind)
		for _, s := range snaps {
			for _, sm := range s.Samples {
				if sm.Name != fam.name {
					continue
				}
				ew.printf("%s%s %d\n", sm.Name, labels(nodeLabel(s.Node), s.Common, sm.Label), sm.Value)
			}
		}
	}
}

func writeHists(ew *errWriter, snaps []Snapshot) {
	var fams []family
	seen := map[string]bool{}
	for _, s := range snaps {
		for _, h := range s.Hists {
			if !seen[h.Name] {
				seen[h.Name] = true
				fams = append(fams, family{name: h.Name, help: h.Help})
			}
		}
	}
	for _, fam := range fams {
		ew.printf("# HELP %s %s\n# TYPE %s histogram\n", fam.name, fam.help, fam.name)
		var merged HistSample
		var any bool
		for _, s := range snaps {
			for _, h := range s.Hists {
				if h.Name != fam.name {
					continue
				}
				writeOneHist(ew, fam.name, nodeLabel(s.Node), s.Common, h)
				for b, c := range h.Buckets {
					merged.Buckets[b] += c
				}
				merged.Label = h.Label
				any = true
			}
		}
		if any {
			// The cluster-wide merge: stats.Hist buckets add exactly, so
			// this is the same histogram `stats.Counters.Add` would build.
			writeOneHist(ew, fam.name, "cluster", "", merged)
		}
	}
}

func writeOneHist(ew *errWriter, name, node, common string, h HistSample) {
	var cum, sum int64
	for b, c := range h.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		sum += c * (int64(1) << uint(b))
		extra := fmt.Sprintf(`le="%d"`, int64(1)<<uint(b))
		if h.Label != "" {
			extra = h.Label + "," + extra
		}
		ew.printf("%s_bucket%s %d\n", name, labels(node, common, extra), cum)
	}
	inf := `le="+Inf"`
	if h.Label != "" {
		inf = h.Label + "," + inf
	}
	ew.printf("%s_bucket%s %d\n", name, labels(node, common, inf), cum)
	ew.printf("%s_sum%s %d\n", name, labels(node, common, h.Label), sum)
	ew.printf("%s_count%s %d\n", name, labels(node, common, h.Label), cum)
}

func writeTopK(ew *errWriter, snaps []Snapshot) {
	var any bool
	for _, s := range snaps {
		if len(s.TopK) > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	ew.printf("# HELP dsm_hot_object_accesses Estimated per-object access count from the space-saving top-K sketch, by access kind.\n" +
		"# TYPE dsm_hot_object_accesses gauge\n")
	for _, s := range snaps {
		for _, e := range s.TopK {
			for k := AccessKind(0); k < NumAccessKinds; k++ {
				if e.Kinds[k] == 0 {
					continue
				}
				extra := fmt.Sprintf(`obj="%d",kind="%s"`, e.Obj, k)
				ew.printf("dsm_hot_object_accesses%s %d\n", labels(nodeLabel(s.Node), s.Common, extra), e.Kinds[k])
			}
		}
	}
	ew.printf("# HELP dsm_hot_object_error Space-saving overestimation bound for the object's access count.\n" +
		"# TYPE dsm_hot_object_error gauge\n")
	for _, s := range snaps {
		for _, e := range s.TopK {
			extra := fmt.Sprintf(`obj="%d"`, e.Obj)
			ew.printf("dsm_hot_object_error%s %d\n", labels(nodeLabel(s.Node), s.Common, extra), e.Err)
		}
	}
}

func writeDecisions(ew *errWriter, snaps []Snapshot) {
	var any bool
	for _, s := range snaps {
		if len(s.Migrated) > 0 || len(s.Stayed) > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	ew.printf("# HELP dsm_migration_decisions_total Home-migration decisions by reason and outcome.\n" +
		"# TYPE dsm_migration_decisions_total counter\n")
	for _, s := range snaps {
		emit := func(counts []int64, migrated string) {
			for i, c := range counts {
				if c == 0 {
					continue
				}
				extra := fmt.Sprintf(`reason="%s",migrated="%s"`, migration.Reason(i), migrated)
				ew.printf("dsm_migration_decisions_total%s %d\n", labels(nodeLabel(s.Node), s.Common, extra), c)
			}
		}
		emit(s.Migrated, "true")
		emit(s.Stayed, "false")
	}
}
