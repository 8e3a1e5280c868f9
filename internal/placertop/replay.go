package placertop

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/service"
)

// ReplayState is the trajectory-replay view: a recorded NDJSON trajectory
// (one `placerd` stream captured with curl, or the EXPERIMENTS fig3 data)
// scrubbed through offline. Points holds the full recording; Pos is how
// many points are currently "played". The replay view reproduces the
// paper's Fig. 3 convergence curves frame by frame.
type ReplayState struct {
	File   string
	Points []service.JobTrajectoryPoint
	// Pos is the number of points visible (clamped to [0, len(Points)]).
	Pos int
	// Speed is points advanced per tick; Paused freezes the playhead.
	Speed  int
	Paused bool
}

// LoadTrajectory reads an NDJSON trajectory recording: one JSON point per
// line, blank lines skipped. Returns an error for an empty or undecodable
// file so placertop fails loudly rather than rendering a blank replay.
func LoadTrajectory(path string) ([]service.JobTrajectoryPoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pts, err := DecodeTrajectory(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return pts, nil
}

// DecodeTrajectory decodes an NDJSON point stream from r.
func DecodeTrajectory(r io.Reader) ([]service.JobTrajectoryPoint, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var pts []service.JobTrajectoryPoint
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var p service.JobTrajectoryPoint
		if err := json.Unmarshal(line, &p); err != nil {
			return nil, fmt.Errorf("line %d: %w", len(pts)+1, err)
		}
		pts = append(pts, p)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("no trajectory points")
	}
	return pts, nil
}

// Step advances the playhead by the current speed (no-op when paused).
func (rp *ReplayState) Step() {
	if rp.Paused {
		return
	}
	rp.Advance(rp.Speed)
}

// Advance moves the playhead by n points (negative rewinds), clamping to
// the recording bounds.
func (rp *ReplayState) Advance(n int) {
	rp.Pos = clampInt(rp.Pos+n, 0, len(rp.Points))
}

// visible returns the played prefix of the recording.
func (rp *ReplayState) visible() []service.JobTrajectoryPoint {
	return rp.Points[:clampInt(rp.Pos, 0, len(rp.Points))]
}

// renderReplay draws the single-trajectory view: an HPWL chart over an
// overflow chart, the current point's numbers, guard-trip markers, and a
// transport bar with the playhead position.
func renderReplay(f *Frame, s *Snapshot) {
	rp := s.Replay
	w, h := f.W, f.H
	f.Text(0, 0, "placertop replay", STitle)
	f.Text(17, 0, "· "+rp.File, SDim)
	mode := fmt.Sprintf("speed x%d", rp.Speed)
	if rp.Paused {
		mode = "paused"
	}
	f.TextRight(w-1, 0, fmt.Sprintf("%s  #%d", mode, s.Seq), SDefault)

	vis := rp.visible()
	chartW := w - 4

	// Split the vertical space: HPWL gets the larger chart.
	avail := h - 7 // header, 2 titles, stats line, transport, footer, spare
	hpwlH := clampInt(avail*3/5, 3, 12)
	ovH := clampInt(avail-hpwlH, 2, 8)

	y := 1
	f.Text(2, y, "hpwl", STitle)
	if n := len(vis); n > 0 {
		f.TextRight(w-3, y, fmtSI(vis[n-1].HPWL), SDefault)
	}
	y++
	hp := make([]float64, len(vis))
	ov := make([]float64, len(vis))
	for i, p := range vis {
		hp[i] = p.HPWL
		ov[i] = p.Overflow
	}
	for _, row := range Chart(hp, chartW, hpwlH) {
		f.Text(2, y, row, SAccent)
		y++
	}
	f.Text(2, y, "overflow", STitle)
	if n := len(vis); n > 0 {
		f.TextRight(w-3, y, fmtSI(vis[n-1].Overflow), overflowStyle(vis[n-1].Overflow))
	}
	y++
	for _, row := range Chart(ov, chartW, ovH) {
		f.Text(2, y, row, SWarn)
		y++
	}

	// Current-point stats and guard history.
	if n := len(vis); n > 0 {
		p := vis[n-1]
		stats := fmt.Sprintf("iter %-6d λ %-8s µ %-8s obj %-8s guard %d",
			p.Iter, fmtSI(p.Lambda), fmtSI(p.Param), fmtSI(p.Objective), p.GuardTrips)
		f.Text(2, y, stats, SDefault)
	} else {
		f.Text(2, y, "at start of recording", SDim)
	}
	y++

	// Transport: played fraction plus point counter.
	frac := 0.0
	if len(rp.Points) > 0 {
		frac = float64(rp.Pos) / float64(len(rp.Points))
	}
	counter := fmt.Sprintf(" %d/%d", rp.Pos, len(rp.Points))
	barW := w - 4 - len(counter)
	f.Text(2, y, Bar(frac, barW), SAccent)
	f.Text(2+barW, y, counter, SDim)

	f.Text(0, h-1, "space pause  ./, step  +/- speed  0 rewind  q quit", SDim)
}
