package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"cmpsim/internal/core"
	"cmpsim/internal/memsys"
)

// SimVersion stamps every cache key. Bump it whenever a change can
// alter simulated timing or statistics for an unchanged configuration,
// so stale entries from older simulator revisions can never be
// returned as current results. TestLedger (testdata/ledger.json in the
// root package) enforces the bump for every cell it runs: its -update
// refuses to record moved results at an unchanged SimVersion. Of the
// full-size cells (cache key "name/full") it runs the figure table's,
// so one that moves only others (MXS on mp3d) needs a bump by hand.
const SimVersion = 6

// Cacheable reports whether a job's result may be memoized: it needs a
// workload identity and a configuration whose non-scalar fields are
// all nil (runtime attachments are excluded from the fingerprint, and
// a SharedData classifier cannot be hashed).
func Cacheable(job *Job) bool {
	return job.WorkloadKey != "" &&
		job.Cfg.Trace == nil &&
		job.Cfg.Metrics == nil &&
		job.Cfg.Check == nil &&
		job.Cfg.Prof == nil &&
		job.Cfg.SharedData == nil
}

// Key returns the cache key of a job: a hex SHA-256 over the sim
// version, the workload identity, the architecture, the CPU model and
// the canonical config fingerprint.
func Key(job *Job) string { return key(SimVersion, job) }

func key(version int, job *Job) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d\x00%s\x00%s\x00%s\x00%s",
		version, job.WorkloadKey, job.Arch, job.Model, Fingerprint(&job.Cfg))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Fingerprint renders every scalar knob of a configuration as a
// canonical "Name=value;" list in declared field order. Walking the
// struct by reflection means a newly added knob changes the
// fingerprint (and so the cache key) automatically instead of aliasing
// against old entries. Func, pointer and interface fields — the
// runtime attachments Trace/Metrics/Check and the SharedData
// classifier — are skipped; Cacheable requires them nil. SimJobs is
// skipped by name: the field has no effect (see its doc comment), and
// leaving it out keeps every cache key unchanged.
func Fingerprint(cfg *memsys.Config) string {
	var sb strings.Builder
	v := reflect.ValueOf(*cfg)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		switch v.Field(i).Kind() {
		case reflect.Func, reflect.Pointer, reflect.Interface:
			continue
		}
		if t.Field(i).Name == "SimJobs" {
			continue // inert field (see doc comment)
		}
		fmt.Fprintf(&sb, "%s=%v;", t.Field(i).Name, v.Field(i).Interface())
	}
	return sb.String()
}

// Cache is a directory of JSON-serialized run results, one file per
// key. Entries are written atomically (temp file + rename), so a
// parallel pool filling the same cell twice converges on one valid
// file and concurrent experiment invocations can safely share a
// directory.
type Cache struct {
	dir string
}

// OpenCache opens (creating if needed) a result cache directory.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's directory.
func (c *Cache) Dir() string { return c.dir }

// entry is the on-disk form: the sim-version stamp plus the run's
// cycle counts and statistics (the Metrics attachment is never cached
// — Cacheable excludes sampled runs).
type entry struct {
	SimVersion int             `json:"simVersion"`
	Result     *core.RunResult `json:"result"`
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get loads the result stored under key. A missing file is a plain
// miss; an unreadable or corrupt file is an error, so silent
// recomputation never masks a damaged cache.
func (c *Cache) Get(key string) (*core.RunResult, bool, error) {
	data, err := os.ReadFile(c.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, false, fmt.Errorf("corrupt cache entry %s (delete it to recompute): %w", c.path(key), err)
	}
	if e.SimVersion != SimVersion || e.Result == nil {
		return nil, false, nil // written by another simulator revision: miss
	}
	return e.Result, true, nil
}

// Put stores a result under key, atomically.
func (c *Cache) Put(key string, res *core.RunResult) error {
	saved := *res
	saved.Metrics = nil // runtime attachments, never part of a cached result
	saved.Profile = nil
	data, err := json.MarshalIndent(entry{SimVersion: SimVersion, Result: &saved}, "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-"+key+"-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return werr
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
