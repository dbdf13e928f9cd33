package lint

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Shape is shapelint: the repository's shape — one protocol core under
// two engines, observation on the side, one of each substrate — kept as
// one table of rules, shapeRules. A row either bans its targets from a
// set of packages, or confines them to listed files ("only"), optionally
// exactly n times in each. A target is resolved through types.Info, not
// spelling, so aliases, explicit instantiation and method values count
// and comments and strings never match: a func, method, type, field or
// constant (used or declared), a composite-literal type, a map type, a
// flag name passed to a flag or *flag.FlagSet registration, an import
// path, a package clause, or a word in a README.md beside the package.
// A new shape rule is one row, and one fixture case that fires it
// (linttest's TestEveryShapeRowFires fails on a row no fixture fires).
var Shape = &Analyzer{
	Name: "shapelint",
	Doc: "keep the repository's shape: each row of shapeRules bans a " +
		"func, method, type, field, literal, map type, flag, import or " +
		"README word from some packages, or confines it to listed files",
	Run: runShape,
}

// A shapeRule is one row of the table.
type shapeRule struct {
	name  string   // what the rule keeps; every finding starts with it
	since string   // the change that set the rule, by its title in CHANGES.md
	in    []string // the packages the row reads: import paths, "p/..." for a tree
	tests bool     // read _test.go files too
	what  []target
	// only, when set, lists the files (or "dir/" trees, module-relative)
	// outside which what may not appear; without it the row is a ban.
	only []string
	n    int // with only: each listed file holds each target exactly n times
}

type targetKind uint8

const (
	tUse    targetKind = iota // an identifier that resolves to the object
	tDecl                     // the object's declaration
	tLit                      // a composite literal of the named type
	tMap                      // a map type written out
	tFlag                     // a registration of the flag name
	tNilCmp                   // the object compared with nil
	tPkg                      // a package clause
	tImport                   // an import of the path
	tWord                     // the word in the README.md beside the package
)

// A target is what a row looks for. Empty fields match anything.
type target struct {
	kind targetKind
	obj  string // "func", "method", "type", "field", "const" or "var"
	pkg  string // the declaring package; for tImport, the path ("p/..." for a tree)
	of   string // the type it belongs to: a method's receiver, a field's struct, a constant's type
	name string // for tFlag the flag, for tWord the word
}

// use and lit take a qualified name: "pkg/path.Name" or "pkg/path.Type.Name".
func use(q string) target { return qualified(tUse, q) }
func lit(q string) target { return qualified(tLit, q) }

// decl takes a name declared in the row's packages: "Name" or
// "Type.Name". A name ending in "*" matches every name it prefixes.
func decl(obj, name string) target {
	t := target{kind: tDecl, obj: obj, name: name}
	if of, n, ok := strings.Cut(name, "."); ok {
		t.of, t.name = of, n
	}
	return t
}

// declared takes a qualified package-level name, "pkg/path.Name", for a
// row that reads several packages but bans a name in one of them.
func declared(q string) target { return qualified(tDecl, q) }

func flagName(name string) target { return target{kind: tFlag, name: name} }
func nilCmp(name string) target   { return target{kind: tNilCmp, name: name} }
func imported(p string) target    { return target{kind: tImport, pkg: p} }
func word(w string) target        { return target{kind: tWord, name: w} }

func qualified(kind targetKind, q string) target {
	dir, rest := "", q
	if i := strings.LastIndex(q, "/"); i >= 0 {
		dir, rest = q[:i+1], q[i+1:]
	}
	parts := strings.Split(rest, ".")
	t := target{kind: kind, pkg: dir + parts[0], name: parts[len(parts)-1]}
	if len(parts) == 3 {
		t.of = parts[1]
	}
	return t
}

func (t target) String() string {
	short := path.Base(t.pkg)
	member := t.name
	if t.of != "" {
		member = t.of + "." + member
	}
	switch t.kind {
	case tUse:
		if t.pkg == "" {
			return "use of " + t.obj + " " + member
		}
		return "use of " + short + "." + member
	case tDecl:
		return strings.TrimSpace(t.obj+" "+member) + " declared"
	case tLit:
		return short + "." + member + " literal"
	case tMap:
		return "map type"
	case tFlag:
		return "flag -" + t.name + " registered"
	case tNilCmp:
		return t.name + " compared with nil"
	case tPkg:
		return "package"
	case tImport:
		return "import of " + t.pkg
	}
	return strconv.Quote(t.name)
}

// module is this repository's module path; a package under
// shapeFixtures is read as the module package at the same relative path,
// so linttest's fixture tree exercises the rows as they ship.
const (
	module        = "repro"
	shapeFixtures = "fixture/shape"
)

var (
	everywhere = []string{module + "/..."}
	// outsideBenchmark is the module but the benchmark harness, which
	// is frozen and keeps its own names (benchmark/compare.go's judge).
	outsideBenchmark = []string{module, module + "/cmd/...", module + "/internal/...", module + "/examples/..."}
)

func pkgs(paths ...string) []string {
	for i, p := range paths {
		paths[i] = module + "/" + p
	}
	return paths
}

// shapeRules is the table. Each row's since names the change that set
// it (CHANGES.md has the why).
var shapeRules = []shapeRule{
	{name: "engines build no protocol messages", since: "One thread-side protocol driver",
		in: pkgs("internal/gos", "internal/live"), what: []target{lit("repro/internal/wire.Msg")}},
	{name: "a broadcast is proto's", since: "Written for its callers",
		in: pkgs("internal/gos", "internal/live", "internal/cnet"), what: []target{decl("method", "Broadcast")}},

	{name: "proto knows no consumer", since: "One observation spine",
		in:   pkgs("internal/proto"),
		what: []target{imported("repro/internal/trace"), imported("repro/internal/telemetry")}},
	// By type, every observation pointer would count, and with it the
	// setup checks cfg.FlightLocal != nil and sub != nil in live.go:
	// the row keeps the names the sites used to guard.
	{name: "no observation nil-guard", since: "One observation spine",
		in:   pkgs("internal/proto", "internal/gos", "internal/live"),
		what: []target{nilCmp("Trace"), nilCmp("Flight"), nilCmp("Tel"), nilCmp("Observer")}},
	{name: "observers attach only through Subscribe", since: "One way in at each engine edge",
		in:   pkgs("internal/gos", "internal/live"),
		what: []target{decl("field", "Observer"), decl("field", "Telemetry")}},
	// Node.Subscribe and Space.Subscribe.
	{name: "one way to subscribe", since: "One lock per observed event",
		in: outsideBenchmark, what: []target{decl("method", "Subscribe")},
		only: []string{"internal/proto/observe.go"}},
	// dsm.New keeps the engine it builds as its proto.Space and its Run:
	// no interface between them, and proto's names spelled once.
	{name: "the facade calls the engine directly", since: "One engine seam",
		in: pkgs("internal/proto", "internal/gos"),
		what: []target{declared("repro/internal/proto.Cluster"),
			declared("repro/internal/gos.LockID"), declared("repro/internal/gos.BarrierID"),
			declared("repro/internal/gos.Worker"), declared("repro/internal/gos.Err*")}},
	{name: "the sketch keeps no maps", since: "One lock per observed event",
		in: pkgs("internal/telemetry"), what: []target{{kind: tMap}}, only: []string{"internal/telemetry/prom.go"}},
	{name: "a live backend is a Pusher at compile time", since: "One way in at each engine edge",
		in: outsideBenchmark, tests: true, what: []target{decl("", "DepthReporter")}},

	{name: "one live receive path", since: "One live receive path; A reply runs its thread",
		in: pkgs("internal/live"),
		what: []target{{kind: tUse, obj: "method", name: "Recv"}, decl("", "daemon"),
			use("repro/internal/live/transport.Queue.Get")}},
	{name: "a live thread is one coroutine", since: "A reply runs its thread",
		in: pkgs("internal/live"), what: []target{use("iter.Pull")},
		only: []string{"internal/live/thread.go"}, n: 1},
	{name: "a thread's mailbox is its node's", since: "One lock per side of an in-process hop",
		in: pkgs("internal/live"), what: []target{use("repro/internal/live/transport.NewQueue")}},

	{name: "a sim proc is one coroutine", since: "A sim proc is a coroutine",
		in: pkgs("internal/sim"), what: []target{use("iter.Pull")},
		only: []string{"internal/sim/sim.go"}, n: 1},
	// Member.InboxLen and the TCP backend's InboxLen exist for the
	// benchmark's link gauge (ROADMAP item 10): nothing else grows on them.
	{name: "InboxLen is the benchmark's link gauge", since: "A sim proc is a coroutine",
		in: outsideBenchmark, tests: true, what: []target{use("repro/internal/live/cluster.Member.InboxLen")}},
	{name: "the TCP InboxLen feeds only the member's gauge", since: "A sim proc is a coroutine",
		in: outsideBenchmark, tests: true, what: []target{use("repro/internal/live/transport/tcp.Transport.InboxLen")},
		only: []string{"internal/live/cluster/cluster.go", "internal/live/transport/tcp/tcp_test.go"}},

	{name: "a member owns one node", since: "A member owns one node",
		in: pkgs("internal/live/cluster"), tests: true, what: []target{decl("", "repair")}},

	{name: "a selection flag is registered once", since: "One run configuration",
		in: pkgs("cmd/...", "internal/..."), what: []target{flagName("nopiggyback"), flagName("locator")},
		only: []string{"internal/apps/apps.go"}, n: 1},
	{name: "-seed is the shared block's and the sweeps' first seed", since: "A generated scenario is an application",
		in: pkgs("cmd/...", "internal/..."), what: []target{flagName("seed")},
		only: []string{"cmd/dsmbench/main.go", "internal/apps/apps.go"}, n: 1},
	{name: "the selection is declared once per level", since: "One run configuration",
		in: outsideBenchmark, what: []target{decl("field", "PathCompress")},
		only: []string{"dsm.go", "internal/proto/proto.go"}, n: 1},
	{name: "one verdict sweep", since: "One run configuration",
		in: pkgs("internal/..."), tests: true, what: []target{decl("func", "CrossSweep")}},

	{name: "one sweep substrate", since: "One sweep substrate",
		in: pkgs("internal/bench"), tests: true,
		what: []target{decl("func", "runApp"), decl("func", "checkDigests"), decl("func", "runAblation"),
			decl("", "digestTracker")}},
	{name: "the pool schedules the runs", since: "One sweep substrate; The grid runs its own cells",
		in:   pkgs("internal/scenario", "internal/bench"),
		what: []target{use("sync.WaitGroup")}, only: []string{"internal/bench/grid.go"}, n: 1},
	{name: "the pool alone reads the width", since: "One sweep substrate; The grid runs its own cells",
		in:   pkgs("internal/scenario", "internal/bench", "cmd/dsmbench"),
		what: []target{use("runtime.GOMAXPROCS")}, only: []string{"internal/bench/grid.go"}, n: 1},
	{name: "one debug mux", since: "One sweep substrate",
		in: pkgs("cmd/...", "internal/..."), what: []target{use("net/http/pprof.Index")},
		only: []string{"internal/obshttp/obshttp.go"}, n: 1},

	{name: "only the facade builds an engine", since: "A generated scenario is an application",
		in: outsideBenchmark, what: []target{use("repro/internal/gos.New"), use("repro/internal/live.New")},
		only: []string{"dsm.go"}, n: 1},
	{name: "a scenario runs nothing", since: "A generated scenario is an application",
		in: pkgs("internal/scenario"),
		what: []target{imported("repro/internal/gos/..."), imported("repro/internal/live/..."),
			imported("repro/internal/oracle/..."), imported("repro/internal/telemetry/..."),
			imported("repro/internal/apps/...")}},
	{name: "a scenario is an application", since: "A generated scenario is an application",
		in: pkgs("internal/scenario"), tests: true,
		what: []target{decl("method", "Program.Run"), decl("type", "Result"), decl("type", "RunOpts")}},
	{name: "one comparator, no wall-order fork", since: "A generated scenario is an application",
		in: outsideBenchmark, tests: true,
		what: []target{decl("func", "judge"), decl("", "forceWallOrder"), decl("", "obslint")}},
	{name: "the README names no removed part", since: "One way in at each engine edge; A generated scenario is an application",
		in: outsideBenchmark,
		what: []target{word("DepthReporter"), word("cannot push"), word("func judge"), word("forceWallOrder"),
			word("obslint")}},

	{name: "a policy decides and explains in one method", since: "Written once",
		in: pkgs("internal/migration"), tests: true, what: []target{decl("func", "Explain")}},
	{name: "ShouldMigrate is Adaptive's wrapper for the benchmark probe", since: "Written once",
		in: outsideBenchmark, tests: true, what: []target{decl("method", "ShouldMigrate")},
		only: []string{"internal/migration/policy.go"}, n: 1},
	{name: "proto knows no policy's rule", since: "The policy owns its rule",
		in:   pkgs("internal/proto"),
		what: []target{use("repro/internal/migration.Jackal"), use("repro/internal/migration.Jiajia")}},
	{name: "wire.Decode is the benchmark probe's wrapper", since: "Decode in place, handle by pointer",
		in: outsideBenchmark, tests: true, what: []target{use("repro/internal/wire.Decode")},
		only: []string{"internal/wire/"}},
	{name: "Node.Handle by value is the benchmark probes' wrapper", since: "A hop pays for its message, not its plumbing",
		in: outsideBenchmark, tests: true, what: []target{use("repro/internal/proto.Node.Handle")},
		only: []string{"internal/proto/"}},
	{name: "Node.Install by value is the benchmark probes' wrapper", since: "The policy owns its rule",
		in: outsideBenchmark, tests: true, what: []target{use("repro/internal/proto.Node.Install")},
		only: []string{"internal/proto/"}},
	{name: "a pool is a bounded free list", since: "A hop pays for its message, not its plumbing",
		in: outsideBenchmark, tests: true, what: []target{use("sync.Pool")}},
	{name: "the live engine decodes into its pool", since: "A payload crosses the live engine as one copy",
		in: pkgs("internal/live"), what: []target{use("repro/internal/wire.Msg.Decode")}},
	{name: "unsafe lives in the word view", since: "A payload crosses the live engine as one copy",
		in: outsideBenchmark, what: []target{imported("unsafe")}, only: []string{"internal/twindiff/words.go"}},
	{name: "the examples do not restate internal/apps", since: "Written once",
		in: pkgs("examples/..."), what: []target{{kind: tPkg}},
		only: []string{"examples/patterns/", "examples/quickstart/"}},

	{name: "Join has one caller", since: "A member's life is one call",
		in: outsideBenchmark, what: []target{use("repro/internal/live/cluster.Join")},
		only: []string{"cmd/dsmnode/main.go"}, n: 1},
	{name: "the abort rule and the telemetry loop live in cluster", since: "A member's life is one call",
		in: outsideBenchmark,
		what: []target{use("repro/internal/live/cluster.Member.AbortApp"),
			use("repro/internal/live/cluster.Member.ShipTelemetry"), use("repro/internal/telemetry.NewSampler")},
		only: []string{"internal/live/cluster/"}},

	{name: "node 0 gathers and broadcasts only in round", since: "One control-plane round",
		in: pkgs("internal/live/cluster"),
		what: []target{use("repro/internal/live/cluster.Member.recv"),
			use("repro/internal/live/cluster.Member.broadcast")},
		only: []string{"internal/live/cluster/cluster.go"}, n: 2},
	{name: "six control kinds", since: "One control-plane round",
		in: pkgs("internal/live/cluster"), what: []target{decl("const", "ctlKind.*")},
		only: []string{"internal/live/cluster/cluster.go"}, n: 6},
	{name: "no quiescence probe beside the round", since: "One control-plane round",
		in: pkgs("internal/live"), tests: true, what: []target{decl("", "Quiescer")}},

	{name: "a back-off is a retry timer", since: "A thread waits in one place",
		in: pkgs("internal/proto", "internal/gos", "internal/live/..."), tests: true,
		what: []target{decl("", "Backoff")}},
	{name: "the driver waits in one place", since: "A thread waits in one place",
		in: outsideBenchmark, what: []target{use("repro/internal/proto.Host.Recv")},
		only: []string{"internal/proto/driver.go"}, n: 1},
	{name: "one retry path", since: "A thread waits in one place",
		in:   pkgs("internal/proto"),
		what: []target{decl("method", "Driver.queryManager"), decl("method", "Driver.recvMsg")}},

	{name: "one model of the protocol", since: "A what-if is a real run",
		in: pkgs("internal/trace"), tests: true, what: []target{decl("func", "Replay"), decl("", "ReplayResult")}},
	{name: "trace only classifies", since: "A what-if is a real run",
		in: pkgs("internal/trace"), what: []target{imported("repro/internal/core"), imported("repro/internal/migration")}},
	{name: "a what-if runs the builtin policies", since: "A what-if is a real run",
		in: pkgs("cmd/dsmtrace"),
		what: []target{lit("repro/internal/migration.NoHM"), lit("repro/internal/migration.Fixed"),
			lit("repro/internal/migration.Adaptive"), lit("repro/internal/migration.JUMP"),
			lit("repro/internal/migration.Jackal"), lit("repro/internal/migration.Jiajia")}},

	{name: "only the grid builds cells", since: "One grid for every sweep",
		in: pkgs("internal/bench"), what: []target{lit("repro/internal/bench.cell")},
		only: []string{"internal/bench/grid.go"}},
	{name: "every sweep is one grid", since: "One grid for every sweep",
		in: pkgs("internal/bench"), tests: true,
		what: []target{decl("", "fig2Policies"), decl("", "fig3Policies"), decl("", "runner"), decl("field", "trace")}},
	{name: "only the grid hands runs to the pool", since: "One grid for every sweep; The grid runs its own cells",
		in: pkgs("internal/bench"), what: []target{use("repro/internal/bench.RunOpts.runAll")},
		only: []string{"internal/bench/grid.go"}, n: 1},

	{name: "chaos parity is the grid's digest comparison", since: "One judge per verdict",
		in: everywhere, tests: true,
		what: []target{decl("", "ChaosStats"), decl("", "chaosRun"), decl("", "timedRecorder"),
			flagName("chaos-deadline")}},
	{name: "one kind of event log", since: "One judge per verdict",
		in: pkgs("internal/oracle", "internal/trace"), tests: true,
		what: []target{decl("type", "Recorder"), decl("type", "Trace")}},

	{name: "the protocol core keeps no maps", since: "One copy of each fact in the protocol core",
		in: pkgs("internal/proto"), what: []target{{kind: tMap}}},
	{name: "no side lists", since: "One copy of each fact in the protocol core",
		in: everywhere, tests: true,
		what: []target{decl("", "HomeList"), decl("", "CachedList"), decl("", "DirtyList")}},
}

// ShapeRules returns the names of shapelint's rows, in table order.
func ShapeRules() []string {
	names := make([]string, len(shapeRules))
	for i, r := range shapeRules {
		names[i] = r.name
	}
	return names
}

// pathMatch reports whether import path p is pattern, or under it when
// pattern ends in "/...".
func pathMatch(pattern, p string) bool {
	if tree, ok := strings.CutSuffix(pattern, "/..."); ok {
		return p == tree || strings.HasPrefix(p, tree+"/")
	}
	return p == pattern
}

// modulePath maps a package path as loaded to the module path the rows
// name: the fixture tree stands in for the module, and an external test
// package reads as its package.
func modulePath(p string) string {
	p = strings.TrimSuffix(p, "_test")
	if rest, ok := strings.CutPrefix(p, shapeFixtures); ok && (rest == "" || rest[0] == '/') {
		return module + rest
	}
	return p
}

// pkgDir is a module package's directory, module-relative: "." for
// the root.
func pkgDir(pkg string) string {
	if dir := strings.TrimPrefix(pkg, module+"/"); dir != pkg {
		return dir
	}
	return "."
}

// relFile is a file's module-relative path, as only lists name it.
func relFile(pkg, filename string) string {
	return path.Join(pkgDir(pkg), filepath.Base(filename))
}

func (r *shapeRule) reads(pkg string) bool {
	for _, p := range r.in {
		if pathMatch(p, pkg) {
			return true
		}
	}
	return false
}

func (r *shapeRule) allows(file string) bool {
	for _, w := range r.only {
		if w == file || strings.HasSuffix(w, "/") && strings.HasPrefix(file, w) {
			return true
		}
	}
	return false
}

func (r *shapeRule) reportf(pass *Pass, pos token.Pos, format string, args ...any) {
	pass.Reportf(pos, "%s: %s (rule set by %q)", r.name, fmt.Sprintf(format, args...), r.since)
}

// A hit is one appearance of a row's target.
type hit struct {
	pos    token.Pos
	target int
}

func runShape(pass *Pass) error {
	pkg := modulePath(pass.Pkg.Path())
	// An external test package shares its package's directory: the
	// README and the counted files are read once, with the package.
	external := strings.HasSuffix(pass.Pkg.Path(), "_test")
	for i := range shapeRules {
		r := &shapeRules[i]
		if !r.reads(pkg) {
			continue
		}
		if !external {
			if err := r.checkWords(pass, pkg); err != nil {
				return err
			}
		}
		counted := map[string]bool{}
		for _, f := range pass.Files {
			filename := pass.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(filename, "_test.go") && !r.tests {
				continue
			}
			file := relFile(pkg, filename)
			hits := r.hits(pass, f)
			for _, h := range hits {
				switch t := r.what[h.target]; {
				case r.only == nil:
					r.reportf(pass, h.pos, "%s in %s", t, pkg)
				case !r.allows(file):
					r.reportf(pass, h.pos, "%s outside %s", t, strings.Join(r.only, ", "))
				}
			}
			if r.n > 0 && !external && slices.Contains(r.only, file) {
				counted[file] = true
				r.checkCount(pass, f, file, hits)
			}
		}
		if r.n == 0 || external || len(pass.Files) == 0 {
			continue
		}
		for _, w := range r.only {
			if !strings.HasSuffix(w, "/") && path.Dir(w) == pkgDir(pkg) && !counted[w] {
				r.reportf(pass, pass.Files[0].Name.Pos(), "%s is gone; the row counts on it", w)
			}
		}
	}
	return nil
}

// checkCount holds each target to exactly r.n appearances in file,
// reporting the first one too many, or the package clause when short.
func (r *shapeRule) checkCount(pass *Pass, f *ast.File, file string, hits []hit) {
	for ti, t := range r.what {
		var at []token.Pos
		for _, h := range hits {
			if h.target == ti {
				at = append(at, h.pos)
			}
		}
		switch {
		case len(at) > r.n:
			r.reportf(pass, at[r.n], "%s %d times in %s, want %d", t, len(at), file, r.n)
		case len(at) < r.n:
			r.reportf(pass, f.Name.Pos(), "%s %d times in %s, want %d", t, len(at), file, r.n)
		}
	}
}

// hits finds the row's targets in one file, in source order.
func (r *shapeRule) hits(pass *Pass, f *ast.File) []hit {
	var hits []hit
	add := func(pos token.Pos, match func(target) bool) {
		for i, t := range r.what {
			if match(t) {
				hits = append(hits, hit{pos, i})
			}
		}
	}
	add(f.Name.Pos(), func(t target) bool { return t.kind == tPkg })
	for _, spec := range f.Imports {
		p, _ := strconv.Unquote(spec.Path.Value)
		add(spec.Pos(), func(t target) bool { return t.kind == tImport && pathMatch(t.pkg, modulePath(p)) })
	}
	info := pass.TypesInfo
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if o := info.Defs[n]; o != nil {
				add(n.Pos(), func(t target) bool { return t.kind == tDecl && t.matches(o) })
			}
			if o := info.Uses[n]; o != nil {
				add(n.Pos(), func(t target) bool { return t.kind == tUse && t.matches(o) })
			}
		case *ast.CompositeLit:
			if named, ok := info.TypeOf(n).(*types.Named); ok {
				add(n.Pos(), func(t target) bool { return t.kind == tLit && t.matches(named.Obj()) })
			}
		case *ast.MapType:
			add(n.Pos(), func(t target) bool { return t.kind == tMap })
		case *ast.CallExpr:
			if name, pos, ok := flagRegistration(info, n); ok {
				add(pos, func(t target) bool { return t.kind == tFlag && t.name == name })
			}
		case *ast.BinaryExpr:
			if o := nilComparand(info, n); o != nil {
				add(n.Pos(), func(t target) bool { return t.kind == tNilCmp && t.name == o.Name() })
			}
		}
		return true
	})
	sort.SliceStable(hits, func(i, j int) bool { return hits[i].pos < hits[j].pos })
	return hits
}

// matches reports whether o is the object t names.
func (t target) matches(o types.Object) bool {
	if prefix, ok := strings.CutSuffix(t.name, "*"); ok {
		if !strings.HasPrefix(o.Name(), prefix) {
			return false
		}
	} else if t.name != "" && o.Name() != t.name {
		return false
	}
	kind, of := describe(o)
	if t.obj != "" && kind != t.obj || kind == "" {
		return false
	}
	if t.pkg != "" && (o.Pkg() == nil || modulePath(o.Pkg().Path()) != t.pkg) {
		return false
	}
	if t.of == "" {
		// "pkg.Name" is package-level; a bare name is anything so named.
		return t.pkg == "" || o.Parent() == o.Pkg().Scope()
	}
	return of == t.of
}

// describe classifies o and names the type it belongs to.
func describe(o types.Object) (kind, of string) {
	switch o := o.(type) {
	case *types.Func:
		if recv := o.Origin().Type().(*types.Signature).Recv(); recv != nil {
			return "method", typeName(recv.Type())
		}
		return "func", ""
	case *types.TypeName:
		return "type", ""
	case *types.Const:
		return "const", typeName(o.Type())
	case *types.Var:
		if o.IsField() {
			return "field", fieldOwner(o.Origin())
		}
		return "var", typeName(o.Type())
	}
	return "", ""
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// fieldOwner names the package-level struct type that declares field v.
func fieldOwner(v *types.Var) string {
	if v.Pkg() == nil {
		return ""
	}
	scope := v.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == v {
					return name
				}
			}
		}
	}
	return ""
}

// flagRegistration recognizes a call that registers a flag on the flag
// package or a *flag.FlagSet (String, StringVar, Var, Func, ...) and
// returns the flag's name, when it is a constant.
func flagRegistration(info *types.Info, call *ast.CallExpr) (string, token.Pos, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", 0, false
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
		return "", 0, false
	}
	switch fn.Name() {
	case "NewFlagSet", "Lookup", "Set":
		return "", 0, false
	}
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len() && i < len(call.Args); i++ {
		if params.At(i).Name() != "name" {
			continue
		}
		if v := info.Types[call.Args[i]].Value; v != nil && v.Kind() == constant.String {
			return constant.StringVal(v), call.Args[i].Pos(), true
		}
	}
	return "", 0, false
}

// nilComparand returns the object compared with nil by e, if any.
func nilComparand(info *types.Info, e *ast.BinaryExpr) types.Object {
	if e.Op != token.EQL && e.Op != token.NEQ {
		return nil
	}
	for _, pair := range [2][2]ast.Expr{{e.X, e.Y}, {e.Y, e.X}} {
		if tv, ok := info.Types[pair[1]]; !ok || !tv.IsNil() {
			continue
		}
		switch x := ast.Unparen(pair[0]).(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			return info.Uses[x.Sel]
		}
	}
	return nil
}

// checkWords runs the row's word targets over the README.md beside the
// package, if there is one.
func (r *shapeRule) checkWords(pass *Pass, pkg string) error {
	var words []target
	for _, t := range r.what {
		if t.kind == tWord {
			words = append(words, t)
		}
	}
	if len(words) == 0 || len(pass.Files) == 0 {
		return nil
	}
	name := filepath.Join(filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename), "README.md")
	data, err := os.ReadFile(name)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	tf := pass.Fset.AddFile(name, -1, len(data))
	tf.SetLinesForContent(data)
	for off, line := 0, []byte(nil); off < len(data); off += len(line) {
		line = data[off:]
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line = line[:i+1]
		}
		for _, w := range words {
			if i := bytes.Index(line, []byte(w.name)); i >= 0 {
				r.reportf(pass, tf.Pos(off+i), "%s in %s", w, relFile(pkg, name))
			}
		}
	}
	return nil
}
