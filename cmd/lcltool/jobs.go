// The `lcltool jobs` subcommand: a client for the lclserver jobs API.
//
//	lcltool jobs [-server http://localhost:8080] submit -type census -k 3 [-dedup] [-watch]
//	lcltool jobs list
//	lcltool jobs get j000002
//	lcltool jobs watch j000002
//	lcltool jobs cancel j000002
//
// watch consumes the server's SSE stream and renders a single updating
// progress line (phase, done/total, percentage, ETA) until the job
// reaches a terminal state, then prints the result JSON.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/jobs"
)

// runJobs dispatches `lcltool jobs ...`; args excludes the leading
// "jobs".
func runJobs(args []string) {
	fs := flag.NewFlagSet("jobs", flag.ExitOnError)
	server := fs.String("server", "http://localhost:8080", "lclserver base URL")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: lcltool jobs [-server URL] submit|list|get|watch|cancel [args]\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		os.Exit(2)
	}
	c := &jobClient{base: strings.TrimRight(*server, "/")}
	var err error
	switch rest[0] {
	case "submit":
		err = c.submit(rest[1:])
	case "list":
		err = c.list()
	case "get":
		err = c.get(rest[1:])
	case "watch":
		if len(rest) < 2 {
			err = fmt.Errorf("usage: lcltool jobs watch <id>")
		} else {
			err = c.watch(rest[1])
		}
	case "cancel":
		err = c.cancel(rest[1:])
	default:
		err = fmt.Errorf("unknown jobs command %q", rest[0])
	}
	if err != nil {
		fatal(err)
	}
}

type jobClient struct {
	base string
}

// apiError decodes the server's {"error": ...} payload.
func apiError(resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&e)
	if e.Error == "" {
		e.Error = resp.Status
	}
	return fmt.Errorf("server: %s", e.Error)
}

func (c *jobClient) submit(args []string) error {
	fs := flag.NewFlagSet("jobs submit", flag.ExitOnError)
	typ := fs.String("type", "census", "job type: census|path-census|rooted-census")
	k := fs.Int("k", 2, "alphabet size (census, path-census, rooted-census)")
	dedup := fs.Bool("dedup", false, "deduplicate label-isomorphic problems (census)")
	delta := fs.Int("delta", 2, "children per node (rooted-census)")
	radius := fs.Int("radius", 0, "max anonymous synthesis radius (rooted-census; 0 = default)")
	priority := fs.Int("priority", 0, "queue priority (higher runs first)")
	watch := fs.Bool("watch", false, "watch the job after submitting")
	fs.Parse(args)

	spec := jobs.Spec{
		Type:      *typ,
		K:         *k,
		Dedup:     *dedup,
		Delta:     *delta,
		MaxRadius: *radius,
		Priority:  *priority,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return apiError(resp)
	}
	var job jobs.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return err
	}
	fmt.Printf("%s\t%s\t%s\n", job.ID, job.Spec.Type, job.State)
	if *watch {
		return c.watch(job.ID)
	}
	return nil
}

func (c *jobClient) list() error {
	resp, err := http.Get(c.base + "/v1/jobs")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	var out struct {
		Jobs []jobs.Job `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	if len(out.Jobs) == 0 {
		fmt.Println("no jobs")
		return nil
	}
	for _, j := range out.Jobs {
		fmt.Printf("%s\t%-14s\t%-11s\t%s\n", j.ID, j.Spec.Type, j.State, progressLine(j))
	}
	return nil
}

func (c *jobClient) get(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: lcltool jobs get <id>")
	}
	resp, err := http.Get(c.base + "/v1/jobs/" + args[0])
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	fmt.Println(strings.TrimSpace(buf.String()))
	return nil
}

func (c *jobClient) cancel(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: lcltool jobs cancel <id>")
	}
	req, err := http.NewRequest(http.MethodDelete, c.base+"/v1/jobs/"+args[0], nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	var job jobs.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return err
	}
	fmt.Printf("%s\t%s\n", job.ID, job.State)
	return nil
}

// watch streams the job's SSE events, rendering one updating terminal
// progress line until the job finishes.
func (c *jobClient) watch(id string) error {
	resp, err := http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		// Every event's data payload is a full job snapshot, so the
		// event-type lines carry nothing the renderer needs.
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var job jobs.Job
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &job); err != nil {
			return fmt.Errorf("bad event payload: %v", err)
		}
		fmt.Printf("\r\033[K%s %s  %s", job.ID, job.State, progressLine(job))
		if job.State.Terminal() {
			fmt.Println()
			return printOutcome(job)
		}
	}
	fmt.Println()
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("event stream ended before the job finished")
}

// printOutcome renders a terminal job's result or error.
func printOutcome(job jobs.Job) error {
	switch job.State {
	case jobs.StateDone:
		var pretty bytes.Buffer
		if err := json.Indent(&pretty, job.Result, "", "  "); err == nil {
			fmt.Println(pretty.String())
		}
		return nil
	case jobs.StateFailed:
		return fmt.Errorf("job %s failed: %s", job.ID, job.Error)
	default:
		return fmt.Errorf("job %s %s", job.ID, job.State)
	}
}

// progressLine renders a job's progress compactly.
func progressLine(j jobs.Job) string {
	p := j.Progress
	if p.Total == 0 {
		if p.Phase != "" {
			return p.Phase
		}
		return ""
	}
	pct := float64(p.Done) / float64(p.Total) * 100
	s := fmt.Sprintf("%s %d/%d (%.1f%%)", p.Phase, p.Done, p.Total, pct)
	if p.ETASeconds > 0 {
		s += fmt.Sprintf(" eta %s", (time.Duration(p.ETASeconds * float64(time.Second))).Round(time.Second))
	}
	return s
}
