// Command qrioctl is the CLI client for a running qrio daemon, speaking
// the unified /v1 gateway: submit jobs (single or from multiple files),
// list and filter them, cancel them at any lifecycle stage, stream
// cluster changes live, and fetch execution logs.
//
// Usage:
//
//	qrioctl -server http://localhost:8080 nodes
//	qrioctl -server http://localhost:8080 list [-phase Running] [-node N] [-strategy fidelity] [-limit K]
//	qrioctl -server http://localhost:8080 submit -name bv -qasm circuit.qasm \
//	        -fidelity 1.0 [-max2q 0.2] [-shots 1024]
//	qrioctl -server http://localhost:8080 submit -name opt -qasm c.qasm \
//	        -topology ring -topology-qubits 6
//	qrioctl -server http://localhost:8080 cancel bv
//	qrioctl -server http://localhost:8080 watch [JOB]
//	qrioctl -server http://localhost:8080 logs bv
//	qrioctl -server http://localhost:8080 events bv
//	qrioctl -server http://localhost:8080 tenants set -weight 3 -max-active 5 alice
//	qrioctl -server http://localhost:8080 health
//	qrioctl -server http://localhost:8080 metrics [-family qrio_gateway_requests_total]
//	qrioctl -server http://localhost:8080 admin durability
//	qrioctl -server http://localhost:8080 admin snapshot
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"qrio"
	"qrio/client"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "qrio daemon base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	c := client.New(*server)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch args[0] {
	case "tenants":
		if len(args) > 1 && args[1] == "set" {
			tenantsSet(ctx, c, args[2:])
			return
		}
		tenants, err := c.Tenants(ctx)
		check(err)
		fmt.Printf("%-16s %6s %8s %8s %12s %s\n", "TENANT", "WEIGHT", "PENDING", "ACTIVE", "QUBIT-SEC", "QUOTA")
		for _, t := range tenants {
			quota := "unlimited"
			if !t.Quota.Unlimited() {
				quota = fmt.Sprintf("pending=%d active=%d qubit-sec=%g",
					t.Quota.MaxPending, t.Quota.MaxActive, t.Quota.MaxQubitSeconds)
			}
			fmt.Printf("%-16s %6d %8d %8d %12.3f %s\n",
				t.Tenant, t.Weight, t.Pending, t.Active, t.QubitSeconds, quota)
		}
	case "health":
		health(ctx, c)
	case "metrics":
		metrics(ctx, c, args[1:])
	case "admin":
		admin(ctx, c, args[1:])
	case "nodes":
		nodes, err := c.Nodes(ctx)
		check(err)
		fmt.Printf("%-18s %-9s %7s %10s %10s %s\n", "NAME", "PHASE", "QUBITS", "AVG2QERR", "READOUT", "RUNNING")
		for _, n := range nodes {
			fmt.Printf("%-18s %-9s %7s %10.10s %10.10s %s\n",
				n.Name, n.Status.Phase, n.Labels["qrio.io/qubits"],
				n.Labels["qrio.io/avg-2q-error"], n.Labels["qrio.io/avg-readout-error"],
				strings.Join(n.Status.RunningJobs, ","))
		}
	case "jobs", "list":
		list(ctx, c, args[1:])
	case "logs":
		if len(args) < 2 {
			usage()
		}
		res, err := c.Logs(ctx, args[1])
		check(err)
		for _, line := range res.LogLines {
			fmt.Println(line)
		}
		fmt.Printf("fidelity=%.4f node=%s elapsed=%dms\n", res.Fidelity, res.Node, res.ElapsedMS)
	case "events":
		if len(args) < 2 {
			usage()
		}
		events, err := c.Events(ctx, args[1])
		check(err)
		for _, e := range events {
			fmt.Printf("%s  %-14s %s\n", e.Time.Format("15:04:05.000"), e.Reason, e.Message)
		}
	case "submit":
		submit(ctx, c, args[1:])
	case "cancel":
		if len(args) < 2 {
			usage()
		}
		job, err := c.Cancel(ctx, args[1])
		check(err)
		if job.Status.Phase == qrio.JobCancelled {
			fmt.Printf("job %s cancelled (%s)\n", job.Name, job.Status.Message)
			return
		}
		fmt.Printf("job %s: cancellation requested, aborting container on %s\n", job.Name, job.Status.Node)
		final, err := c.Wait(ctx, job.Name)
		check(err)
		fmt.Printf("job %s now %s (%s)\n", final.Name, final.Status.Phase, final.Status.Message)
	case "watch":
		watch(ctx, c, args[1:])
	default:
		usage()
	}
}

func list(ctx context.Context, c *client.Client, args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	phase := fs.String("phase", "", "filter by phase (Pending|Scheduled|Running|Succeeded|Failed|Cancelled)")
	node := fs.String("node", "", "filter by bound node")
	strategy := fs.String("strategy", "", "filter by strategy (fidelity|topology)")
	tenant := fs.String("tenant", "", "filter by owning tenant")
	archived := fs.Bool("archived", false, "include terminal jobs retired to the archive tier")
	limit := fs.Int("limit", 0, "page size (0 = everything; pages are fetched until exhausted)")
	check(fs.Parse(args))
	opts := client.ListOptions{
		Phase:    client.JobPhase(*phase),
		Node:     *node,
		Strategy: *strategy,
		Tenant:   *tenant,
		Archived: *archived,
		Limit:    *limit,
	}
	fmt.Printf("%-20s %-12s %-10s %-9s %-18s %8s\n", "NAME", "TENANT", "PHASE", "STRATEGY", "NODE", "SCORE")
	for {
		page, err := c.List(ctx, opts)
		check(err)
		for _, j := range page.Items {
			fmt.Printf("%-20s %-12s %-10s %-9s %-18s %8.4f\n",
				j.Name, j.Spec.Tenant, j.Status.Phase, j.Spec.Strategy, j.Status.Node, j.Status.Score)
		}
		if page.Continue == "" {
			return
		}
		opts.Continue = page.Continue
	}
}

// watch streams cluster changes. With a job name it follows that job and
// exits when it reaches a terminal phase; without one it streams all job
// and node transitions until interrupted.
func watch(ctx context.Context, c *client.Client, args []string) {
	// Reconnect: a dropped SSE connection resumes from its last token, so
	// a long-running terminal session never misses a transition.
	opts := client.WatchOptions{Reconnect: true}
	follow := ""
	if len(args) > 0 {
		follow = args[0]
		opts = client.WatchOptions{Kind: "job", Name: follow, Reconnect: true}
		// Fail fast on a typo'd name instead of streaming silence.
		if j, err := c.Get(ctx, follow); err != nil {
			check(err)
		} else if j.Status.Phase.Terminal() {
			fmt.Printf("job %s already %s (%s)\n", j.Name, j.Status.Phase, j.Status.Message)
			return
		}
	}
	events, err := c.Watch(ctx, opts)
	check(err)
	for ev := range events {
		switch {
		case ev.Job != nil:
			j := ev.Job
			fmt.Printf("%-9s job  %-20s %-10s node=%-18s %s\n",
				ev.Type, j.Name, j.Status.Phase, j.Status.Node, j.Status.Message)
			if follow != "" && j.Name == follow && j.Status.Phase.Terminal() {
				return
			}
		case ev.Node != nil:
			n := ev.Node
			fmt.Printf("%-9s node %-20s %s\n", ev.Type, n.Name, n.Status.Phase)
		}
	}
}

func submit(ctx context.Context, c *client.Client, args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	name := fs.String("name", "", "job name (required)")
	tenant := fs.String("tenant", "", "tenant to charge the job to (default: the default tenant)")
	qasmPath := fs.String("qasm", "", "path to the OpenQASM 2.0 circuit (required)")
	shots := fs.Int("shots", 1024, "shots")
	fidelityTarget := fs.Float64("fidelity", 0, "fidelity target (fidelity strategy)")
	topology := fs.String("topology", "", "topology name (topology strategy): line|ring|grid|full|heavy-square|star|tree")
	topoQubits := fs.Int("topology-qubits", 0, "topology qubit count")
	max2q := fs.Float64("max2q", 0, "max average 2-qubit error")
	maxReadout := fs.Float64("max-readout", 0, "max readout error")
	minQubits := fs.Int("min-qubits", 0, "minimum device qubits")
	cpu := fs.Int64("cpu", 0, "CPU request (millicores)")
	mem := fs.Int64("memory", 0, "memory request (MB)")
	wait := fs.Bool("wait", false, "wait for the job to finish and print its logs")
	check(fs.Parse(args))
	if *name == "" || *qasmPath == "" {
		log.Fatal("submit needs -name and -qasm")
	}
	src, err := os.ReadFile(*qasmPath)
	check(err)

	req := client.SubmitRequest{
		JobName:   *name,
		Tenant:    *tenant,
		QASM:      string(src),
		Shots:     *shots,
		CPUMillis: *cpu,
		MemoryMB:  *mem,
		Requirements: qrio.DeviceRequirements{
			MinQubits:     *minQubits,
			MaxAvg2QError: *max2q,
			MaxReadoutErr: *maxReadout,
		},
	}
	switch {
	case *fidelityTarget > 0:
		req.Strategy = qrio.StrategyFidelity
		req.TargetFidelity = *fidelityTarget
	case *topology != "":
		if *topoQubits <= 0 {
			log.Fatal("topology strategy needs -topology-qubits")
		}
		g, err := qrio.NamedTopology(*topology, *topoQubits)
		check(err)
		topoQASM, err := qrio.TopologyQASM(g)
		check(err)
		req.Strategy = qrio.StrategyTopology
		req.TopologyQASM = topoQASM
	default:
		log.Fatal("choose a strategy: -fidelity F or -topology NAME")
	}
	// One call: the gateway uploads the Meta-Server metadata and routes
	// through the Master Server on the user's behalf.
	job, err := c.Submit(ctx, req)
	check(err)
	fmt.Printf("job %s submitted (phase %s, image %s)\n", job.Name, job.Status.Phase, job.Spec.Image)
	if !*wait {
		return
	}
	final, err := c.Wait(ctx, job.Name)
	check(err)
	fmt.Printf("job %s: %s on node %s\n", final.Name, final.Status.Phase, final.Status.Node)
	if res, err := c.Logs(ctx, final.Name); err == nil {
		for _, line := range res.LogLines {
			fmt.Println(line)
		}
	}
}

// tenantsSet hot-reloads one tenant's fair-share weight and quota — an
// atomic server-side update, durable when the daemon runs with -data-dir.
func tenantsSet(ctx context.Context, c *client.Client, args []string) {
	fs := flag.NewFlagSet("tenants set", flag.ExitOnError)
	weight := fs.Int("weight", 0, "fair-share weight (0 = default weight 1)")
	maxPending := fs.Int("max-pending", 0, "cap on pending jobs (0 = unlimited)")
	maxActive := fs.Int("max-active", 0, "cap on jobs holding node resources (0 = unlimited)")
	maxQubitSec := fs.Float64("max-qubit-seconds", 0, "cap on estimated qubit-seconds in flight (0 = unlimited)")
	check(fs.Parse(args))
	if fs.NArg() != 1 {
		log.Fatal("tenants set needs exactly one TENANT argument, e.g.: qrioctl tenants set -weight 3 alice")
	}
	cfg, err := c.SetTenant(ctx, fs.Arg(0), client.SetTenantRequest{
		Weight: *weight,
		Quota: client.TenantQuota{
			MaxPending:      *maxPending,
			MaxActive:       *maxActive,
			MaxQubitSeconds: *maxQubitSec,
		},
	})
	check(err)
	quota := "unlimited"
	if !cfg.Quota.Unlimited() {
		quota = fmt.Sprintf("pending=%d active=%d qubit-sec=%g",
			cfg.Quota.MaxPending, cfg.Quota.MaxActive, cfg.Quota.MaxQubitSeconds)
	}
	weightStr := "1 (default)"
	if cfg.Weight > 0 {
		weightStr = fmt.Sprintf("%d", cfg.Weight)
	}
	fmt.Printf("tenant %s updated: weight=%s quota=%s\n", cfg.Name, weightStr, quota)
}

// health prints the typed GET /v1/health payload, one component per line.
func health(ctx context.Context, c *client.Client) {
	h, err := c.Health(ctx)
	check(err)
	fmt.Printf("status: %s\n", h.Status)
	fmt.Printf("store:      %-9s jobs=%d nodes=%d\n", h.Store.Status, h.Store.Jobs, h.Store.Nodes)
	fmt.Printf("scheduler:  %-9s pending=%d active=%d\n", h.Scheduler.Status, h.Scheduler.Pending, h.Scheduler.Active)
	fmt.Printf("durability: %-9s", h.Durability.Status)
	if h.Durability.Enabled {
		fmt.Printf(" generation=%d wal-records=%d", h.Durability.Generation, h.Durability.WALRecords)
		if h.Durability.WALError != "" {
			fmt.Printf(" wal-error=%q", h.Durability.WALError)
		}
		if h.Durability.WALErrorClears > 0 {
			fmt.Printf(" wal-error-clears=%d", h.Durability.WALErrorClears)
		}
	}
	fmt.Println()
	fmt.Printf("archive:    %-9s resident=%d dropped=%d", h.Archive.Status, h.Archive.Resident, h.Archive.Dropped)
	if h.Archive.SpillError != "" {
		fmt.Printf(" spill-error=%q", h.Archive.SpillError)
	}
	fmt.Println()
	fmt.Printf("breaker:    %-9s state=%s opens=%d\n", h.Breaker.Status, h.Breaker.State, h.Breaker.Opens)
	if h.Draining {
		fmt.Println("draining: submissions are rejected while in-flight work finishes")
	}
}

// metrics dumps GET /v1/metrics — the raw exposition, or one family.
func metrics(ctx context.Context, c *client.Client, args []string) {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	family := fs.String("family", "", "print only this metric family (parsed samples)")
	check(fs.Parse(args))
	if *family == "" {
		text, err := c.Metrics(ctx)
		check(err)
		fmt.Print(text)
		return
	}
	fams, err := c.MetricFamilies(ctx)
	check(err)
	for _, f := range fams {
		if f.Name != *family {
			continue
		}
		for _, s := range f.Samples {
			fmt.Printf("%s", s.Name)
			if len(s.Labels) > 0 {
				parts := make([]string, len(s.Labels))
				for i, l := range s.Labels {
					parts[i] = fmt.Sprintf("%s=%q", l.Name, l.Value)
				}
				fmt.Printf("{%s}", strings.Join(parts, ","))
			}
			fmt.Printf(" %g\n", s.Value)
		}
		return
	}
	log.Fatalf("no metric family %q (run qrioctl metrics to list them)", *family)
}

// admin drives the /v1/admin ops surface.
func admin(ctx context.Context, c *client.Client, args []string) {
	if len(args) == 0 {
		usage()
	}
	switch args[0] {
	case "durability":
		st, err := c.Durability(ctx)
		check(err)
		if !st.Enabled {
			fmt.Println("durability: disabled (in-memory deployment; start the daemon with -data-dir)")
			return
		}
		fmt.Printf("durability: enabled dir=%s fsync=%v\n", st.Dir, st.Fsync)
		fmt.Printf("generation: %d  snapshots: %d", st.Generation, st.Snapshots)
		if st.LastSnapshotAge != "" {
			fmt.Printf("  last-snapshot-age: %s", st.LastSnapshotAge)
		}
		fmt.Println()
		fmt.Printf("wal lag: %d records / %d bytes since last snapshot\n", st.WALRecords, st.WALBytes)
		r := st.Replay
		fmt.Printf("last boot: restored=%d replayed=%d skipped=%d torn-tails=%d archived=%d requeued=%d (%dms)\n",
			r.RestoredObjects, r.ReplayedRecords, r.SkippedRecords, r.TruncatedTails,
			r.ArchivedEntries, r.RequeuedJobs, r.DurationMillis)
		if st.WALError != "" {
			fmt.Printf("WAL ERROR (latched): %s\n", st.WALError)
		}
		if st.SpillError != "" {
			fmt.Printf("SPILL ERROR (latched): %s\n", st.SpillError)
		}
		if st.WALErrorClears > 0 {
			fmt.Printf("wal errors cleared by snapshots: %d (last at %s)\n",
				st.WALErrorClears, st.LastWALErrorClearedAt.Format("15:04:05"))
		}
	case "snapshot":
		resp, err := c.Snapshot(ctx)
		check(err)
		fmt.Printf("snapshot taken: generation %d\n", resp.Generation)
	default:
		usage()
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: qrioctl [-server URL] <command>
commands:
  nodes                 list cluster nodes
  health                typed per-component health (GET /v1/health)
  metrics [-family F]   dump the Prometheus exposition (GET /v1/metrics), or one family
  tenants               list per-tenant usage, fair-share weights and quotas
  tenants set [flags] TENANT
                        hot-reload a tenant's weight/quota (-weight W,
                        -max-pending N, -max-active N, -max-qubit-seconds F)
  admin durability      show WAL lag, snapshot age and last boot's replay stats
  admin snapshot        force a compacted snapshot now
  list [flags]          list jobs (-phase P, -node N, -strategy S, -tenant T, -archived, -limit K); "jobs" is an alias
  submit -name N -qasm FILE (-fidelity F | -topology NAME -topology-qubits Q) [-tenant T] [-wait] [flags]
  cancel JOB            cancel a job (any lifecycle stage; aborts running containers)
  watch [JOB]           stream live job/node transitions (follow one job to its end)
  logs JOB              fetch a finished job's execution log
  events JOB            list a job's events`)
	os.Exit(2)
}
