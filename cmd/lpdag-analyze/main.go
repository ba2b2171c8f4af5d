// Command lpdag-analyze runs the response-time analysis of Serrano et
// al. (DATE 2016) on a task set in the lpdag JSON format.
//
// Usage:
//
//	lpdag-gen -u 2 | lpdag-analyze -m 4 -method lp-ilp
//	lpdag-analyze -m 8 -compare -f taskset.json
//	lpdag-analyze -session -f taskset.json
//
// With -session the command becomes an interactive what-if shell over a
// stateful analysis session: each question re-analyzes the held set on
// a warm pooled analyzer, and the µ tables stay memoized on the graphs,
// so only a graph an edit introduced pays for them. Commands (one per
// line; `help` prints this list):
//
//	report                      print the current analysis report
//	tasks                       list tasks in priority order
//	add [at] {task json}        insert a task (at = priority index, default lowest)
//	admit [at] {task json}      admission probe: analyze without committing
//	rm <index|name>             remove a task
//	move <from> <to>            change a task's priority
//	cores <m>                   change the core count
//	method <fp-ideal|lp-ilp|lp-max>
//	sensitivity <index|name>    per-task WCET headroom (permille)
//	fix [exhaustive] [apply]    search NPR placements that repair an unschedulable set
//	save <file>                 write the current set as JSON
//	quit
//
// Exit status: 0 when (all requested analyses say) schedulable — in
// session mode, when the final committed set is schedulable — 1 when
// not, 2 on usage or input errors.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/repair"
	"repro/internal/session"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lpdag-analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		m       = fs.Int("m", 4, "number of identical cores")
		method  = fs.String("method", "lp-ilp", "analysis: fp-ideal | lp-ilp | lp-max")
		compare = fs.Bool("compare", false, "run all three methods and print all reports")
		refine  = fs.Bool("final-npr", false, "enable the final-NPR refinement (future-work (ii))")
		repl    = fs.Bool("session", false, "interactive what-if shell (reads commands from stdin)")
		server  = fs.String("server", "", "with -session: comma-separated lpdag-serve base URLs; the session lives server-side, the client follows 307 session redirects and retries dead peers")
		in      = fs.String("f", "", "input task-set JSON (default stdin; optional with -session)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	meth, err := engine.ParseMethod(*method)
	if err != nil {
		fmt.Fprintf(stderr, "lpdag-analyze: %v\n", err)
		return 2
	}
	opts := core.Options{Cores: *m, Method: meth, FinalNPRRefinement: *refine}

	// In session mode stdin carries commands, so the task set (if any)
	// must come from -f.
	var ts *model.TaskSet
	if !*repl || *in != "" {
		r := stdin
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				fmt.Fprintf(stderr, "lpdag-analyze: %v\n", err)
				return 2
			}
			defer f.Close()
			r = f
		}
		if ts, err = model.ReadJSON(r); err != nil {
			fmt.Fprintf(stderr, "lpdag-analyze: %v\n", err)
			return 2
		}
	}

	if *repl {
		return runSession(opts, ts, *server, stdin, stdout, stderr)
	}
	if *server != "" {
		fmt.Fprintln(stderr, "lpdag-analyze: -server requires -session")
		return 2
	}

	if *compare {
		a, err := core.New(opts)
		if err != nil {
			fmt.Fprintf(stderr, "lpdag-analyze: %v\n", err)
			return 2
		}
		reps, err := a.CompareMethods(context.Background(), ts)
		if err != nil {
			fmt.Fprintf(stderr, "lpdag-analyze: %v\n", err)
			return 2
		}
		exit := 0
		for _, meth := range core.Methods() {
			fmt.Fprintln(stdout, reps[meth])
			if !reps[meth].Schedulable {
				exit = 1
			}
		}
		return exit
	}

	a, err := core.New(opts)
	if err != nil {
		fmt.Fprintf(stderr, "lpdag-analyze: %v\n", err)
		return 2
	}
	rep, err := a.Analyze(context.Background(), ts)
	if err != nil {
		fmt.Fprintf(stderr, "lpdag-analyze: %v\n", err)
		return 2
	}
	fmt.Fprint(stdout, rep)
	if !rep.Schedulable {
		return 1
	}
	return 0
}

// runSession is the -session REPL loop; servers == "" runs the session
// in-process, otherwise it lives on an lpdag-serve cluster.
func runSession(opts core.Options, ts *model.TaskSet, servers string, stdin io.Reader, stdout, stderr io.Writer) int {
	var tasks []*model.Task
	if ts != nil {
		tasks = ts.Tasks
	}
	var sess replSession
	if servers != "" {
		var peers []string
		for _, p := range strings.Split(servers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		if len(peers) == 0 {
			fmt.Fprintln(stderr, "lpdag-analyze: -server lists no URLs")
			return 2
		}
		remote, err := newRemoteSession(peers, opts, tasks)
		if err != nil {
			fmt.Fprintf(stderr, "lpdag-analyze: %v\n", err)
			return 2
		}
		defer remote.Close()
		sess = remote
	} else {
		local, err := session.New(opts, tasks...)
		if err != nil {
			fmt.Fprintf(stderr, "lpdag-analyze: %v\n", err)
			return 2
		}
		sess = local
	}
	ctx := context.Background()
	fmt.Fprintf(stdout, "session: %d tasks, m=%d, %v (type `help` for commands)\n",
		sess.Len(), opts.Cores, opts.Method)
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch cmd {
		case "quit", "exit":
			return sessionExit(ctx, sess, stderr)
		case "help":
			fmt.Fprint(stdout, sessionHelp)
		case "report":
			if rep, err := sess.Report(ctx); err != nil {
				fmt.Fprintf(stderr, "error: %v\n", err)
			} else {
				fmt.Fprint(stdout, rep)
			}
		case "tasks":
			for i, t := range sess.Tasks() {
				fmt.Fprintf(stdout, "%3d  %-12s vol=%-6d L=%-6d D=%-6d T=%d\n",
					i, t.Name, t.G.Volume(), t.G.LongestPath(), t.Deadline, t.Period)
			}
		case "add", "admit":
			at, taskJSON := splitAtArg(rest)
			t := new(model.Task)
			if err := t.UnmarshalJSON([]byte(taskJSON)); err != nil {
				fmt.Fprintf(stderr, "error: %v\n", err)
				continue
			}
			if cmd == "admit" {
				rep, err := sess.TryAdmit(ctx, t, at)
				if err != nil {
					fmt.Fprintf(stderr, "error: %v\n", err)
					continue
				}
				verdict := "ADMIT"
				if !rep.Schedulable {
					verdict = "REJECT"
				}
				fmt.Fprintf(stdout, "%s %q\n%s", verdict, t.Name, rep)
				continue
			}
			if err := sess.AddTask(t, at); err != nil {
				fmt.Fprintf(stderr, "error: %v\n", err)
				continue
			}
			fmt.Fprintf(stdout, "added %q at priority %d\n", t.Name, sess.TaskIndex(t.Name))
		case "rm":
			i, ok := resolveTask(sess, rest, stderr)
			if !ok {
				continue
			}
			t, err := sess.RemoveTask(i)
			if err != nil {
				fmt.Fprintf(stderr, "error: %v\n", err)
				continue
			}
			fmt.Fprintf(stdout, "removed %q\n", t.Name)
		case "move":
			parts := strings.Fields(rest)
			if len(parts) != 2 {
				fmt.Fprintf(stderr, "error: usage: move <from> <to>\n")
				continue
			}
			from, err1 := strconv.Atoi(parts[0])
			to, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil {
				fmt.Fprintf(stderr, "error: usage: move <from> <to>\n")
				continue
			}
			if err := sess.SetPriority(from, to); err != nil {
				fmt.Fprintf(stderr, "error: %v\n", err)
			}
		case "cores":
			mv, err := strconv.Atoi(rest)
			if err != nil {
				fmt.Fprintf(stderr, "error: usage: cores <m>\n")
				continue
			}
			if err := sess.SetCores(mv); err != nil {
				fmt.Fprintf(stderr, "error: %v\n", err)
			}
		case "method":
			meth, err := engine.ParseMethod(rest)
			if err != nil {
				fmt.Fprintf(stderr, "error: %v\n", err)
				continue
			}
			if err := sess.SetMethod(meth); err != nil {
				fmt.Fprintf(stderr, "error: %v\n", err)
			}
		case "sensitivity":
			i, ok := resolveTask(sess, rest, stderr)
			if !ok {
				continue
			}
			permille, err := sess.Sensitivity(ctx, i, 100_000)
			if err != nil {
				fmt.Fprintf(stderr, "error: %v\n", err)
				continue
			}
			fmt.Fprintf(stdout, "task %d sustains WCET × %d.%03d\n", i, permille/1000, permille%1000)
		case "fix":
			cfg, apply, err := parseFixArgs(rest)
			if err != nil {
				fmt.Fprintf(stderr, "error: %v\n", err)
				continue
			}
			res, err := sess.Repair(ctx, cfg, apply)
			if err != nil {
				fmt.Fprintf(stderr, "error: %v\n", err)
				continue
			}
			printRepair(stdout, res, apply)
		case "save":
			if rest == "" {
				fmt.Fprintf(stderr, "error: usage: save <file>\n")
				continue
			}
			f, err := os.Create(rest)
			if err != nil {
				fmt.Fprintf(stderr, "error: %v\n", err)
				continue
			}
			set := &model.TaskSet{Tasks: sess.Tasks()}
			if err := set.WriteJSON(f); err != nil {
				fmt.Fprintf(stderr, "error: %v\n", err)
			}
			f.Close()
		default:
			fmt.Fprintf(stderr, "error: unknown command %q (type `help`)\n", cmd)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(stderr, "lpdag-analyze: %v\n", err)
		return 2
	}
	return sessionExit(ctx, sess, stderr)
}

const sessionHelp = `commands:
  report                     print the current analysis report
  tasks                      list tasks in priority order
  add [at] {task json}       insert a task (at = priority index, default lowest)
  admit [at] {task json}     admission probe: analyze without committing
  rm <index|name>            remove a task
  move <from> <to>           change a task's priority
  cores <m>                  change the core count
  method <fp-ideal|lp-ilp|lp-max>
  sensitivity <index|name>   per-task WCET headroom (permille)
  fix [exhaustive] [apply]   search NPR placements that repair an unschedulable set
  save <file>                write the current set as JSON
  quit
`

// parseFixArgs interprets the `fix` command's tokens: `exhaustive`
// switches strategy, `apply` commits a full fix. Defaults stay zero so
// local and remote backends resolve identical search parameters.
func parseFixArgs(rest string) (cfg repair.Config, apply bool, err error) {
	for _, tok := range strings.Fields(rest) {
		switch tok {
		case "apply":
			apply = true
		case "greedy":
			cfg.Strategy = repair.Greedy
		case "exhaustive":
			cfg.Strategy = repair.Exhaustive
		default:
			return cfg, false, fmt.Errorf("usage: fix [greedy|exhaustive] [apply]")
		}
	}
	return cfg, apply, nil
}

// printRepair renders a repair result for the REPL.
func printRepair(stdout io.Writer, res *repair.Result, apply bool) {
	if res.Fixed && len(res.Transforms) == 0 {
		fmt.Fprintf(stdout, "already schedulable (nothing to fix)\n")
		return
	}
	if res.Fixed {
		fmt.Fprintf(stdout, "FIXED in %d transform(s), %d candidate(s) searched:\n",
			len(res.Transforms), res.Candidates)
		for i, tr := range res.Transforms {
			fmt.Fprintf(stdout, "  %d. %s\n", i+1, tr)
		}
		if apply {
			fmt.Fprintf(stdout, "applied; session is schedulable\n")
		} else {
			fmt.Fprintf(stdout, "not applied (rerun with `fix apply` to commit)\n")
		}
		return
	}
	note := ""
	if res.Stopped {
		note = "; search budget struck"
	}
	fmt.Fprintf(stdout, "NO FIX found in %d candidate(s)%s: best leaves %d of %d failing task(s), slack %d -> %d\n",
		res.Candidates, note, res.FailingAfter, res.FailingBefore, res.SlackBefore, res.SlackAfter)
	for i, tr := range res.Transforms {
		fmt.Fprintf(stdout, "  %d. %s\n", i+1, tr)
	}
}

// sessionExit computes the final verdict for the exit status.
func sessionExit(ctx context.Context, sess replSession, stderr io.Writer) int {
	rep, err := sess.Report(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "lpdag-analyze: %v\n", err)
		return 2
	}
	if !rep.Schedulable {
		return 1
	}
	return 0
}

// splitAtArg splits an optional leading priority index off a task-JSON
// argument: "3 {...}" → (3, "{...}"), "{...}" → (-1, "{...}").
func splitAtArg(rest string) (int, string) {
	head, tail, ok := strings.Cut(rest, " ")
	if ok {
		if at, err := strconv.Atoi(head); err == nil {
			return at, strings.TrimSpace(tail)
		}
	}
	return -1, rest
}

// resolveTask parses a task reference (priority index or name).
func resolveTask(sess replSession, ref string, stderr io.Writer) (int, bool) {
	if ref == "" {
		fmt.Fprintf(stderr, "error: missing task index or name\n")
		return 0, false
	}
	if i, err := strconv.Atoi(ref); err == nil {
		return i, true
	}
	i := sess.TaskIndex(ref)
	if i < 0 {
		fmt.Fprintf(stderr, "error: unknown task %q\n", ref)
		return 0, false
	}
	return i, true
}
