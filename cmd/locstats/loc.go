// Lines of executable code are counted the way the paper's §7.3 does
// with sclc.pl: blank lines, comments, and declarations-only lines do
// not add to code complexity and are excluded. The recovery-specific
// lines, which this code base marks with a trailing "// [recovery]"
// comment, are counted too — reproducing Fig. 9's reengineering-effort
// metric over this reproduction's own source.

package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// lineCount is the line tally of one file, package, or component.
type lineCount struct {
	Code     int // executable LoC (non-blank, non-comment)
	Comment  int
	Blank    int
	Recovery int // code lines marked "// [recovery]"
}

// add accumulates.
func (c *lineCount) add(o lineCount) {
	c.Code += o.Code
	c.Comment += o.Comment
	c.Blank += o.Blank
	c.Recovery += o.Recovery
}

// Recovery markers. A trailing recoveryMarker counts one line; a
// recoveryBegin/recoveryEnd comment pair counts every code line between
// (for whole recovery-specific functions).
const (
	recoveryMarker = "// [recovery]"
	recoveryBegin  = "// [recovery:begin]"
	recoveryEnd    = "// [recovery:end]"
)

// countSource tallies one Go source text.
func countSource(src string) lineCount {
	var c lineCount
	inBlock := false
	inRegion := false
	for _, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		switch {
		case inBlock:
			c.Comment++
			if strings.Contains(line, "*/") {
				inBlock = false
			}
		case line == "":
			c.Blank++
		case strings.HasPrefix(line, "//"):
			c.Comment++
			if strings.Contains(line, recoveryBegin) {
				inRegion = true
			}
			if strings.Contains(line, recoveryEnd) {
				inRegion = false
			}
		case strings.HasPrefix(line, "/*"):
			c.Comment++
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
		default:
			c.Code++
			if inRegion || strings.Contains(line, recoveryMarker) {
				c.Recovery++
			}
		}
	}
	return c
}

// countFile tallies one file on disk.
func countFile(path string) (lineCount, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return lineCount{}, err
	}
	return countSource(string(b)), nil
}

// countDir tallies all non-test Go files under dir (non-recursive).
func countDir(dir string) (lineCount, error) {
	var total lineCount
	entries, err := os.ReadDir(dir)
	if err != nil {
		return lineCount{}, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		c, err := countFile(filepath.Join(dir, name))
		if err != nil {
			return lineCount{}, err
		}
		total.add(c)
	}
	return total, nil
}

// countPath tallies one Go file, or a directory as countDir does.
func countPath(path string) (lineCount, error) {
	if strings.HasSuffix(path, ".go") {
		return countFile(path)
	}
	return countDir(path)
}

// component maps a Fig. 9 row to the directories and files implementing it.
type component struct {
	Name  string
	Paths []string
}

// fig9Components is this reproduction's component inventory in the order
// of the paper's Fig. 9 (plus the substrates the paper's table does not
// break out).
func fig9Components(root string) []component {
	d := func(p string) string { return filepath.Join(root, p) }
	return []component{
		{"Reinc. Server", []string{d("internal/core/rs.go"), d("internal/core/ladder.go"), d("internal/core/call.go")}},
		{"RS rungs", []string{d("internal/core/standby.go")}},
		{"Data Store", []string{d("internal/ds")}},
		{"VFS Server", []string{d("internal/vfs")}},
		{"File Server", []string{d("internal/mfs")}},
		{"SATA Driver", []string{d("internal/drivers/sata")}},
		{"RAM Disk", []string{d("internal/drivers/ramdisk")}},
		{"Network Server", []string{d("internal/inet")}},
		{"RTL8139 Driver", []string{d("internal/drivers/rtl8139")}},
		{"DP8390 Driver", []string{d("internal/drivers/dp8390")}},
		{"Char Drivers", []string{d("internal/drivers/chardrv")}},
		{"Driver Library", []string{d("internal/drvlib")}},
		{"Process Manager", []string{d("internal/proc")}},
		{"Microkernel", []string{d("internal/kernel")}},
		{"Policy Shell", []string{d("internal/policy")}},
	}
}

// row is one rendered table row.
type row struct {
	Name     string
	Total    int
	Recovery int
}

// pct renders the recovery percentage like the paper does ("<1%", "0%").
func (r row) pct() string {
	if r.Total == 0 {
		return "-"
	}
	pct := 100 * float64(r.Recovery) / float64(r.Total)
	switch {
	case r.Recovery == 0:
		return "0%"
	case pct < 1:
		return "<1%"
	default:
		return fmt.Sprintf("%.0f%%", pct)
	}
}

// table computes the Fig. 9 table for the module rooted at root.
func table(root string) ([]row, error) {
	var rows []row
	var total row
	total.Name = "Total"
	for _, comp := range fig9Components(root) {
		var c lineCount
		for _, path := range comp.Paths {
			pc, err := countPath(path)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", comp.Name, err)
			}
			c.add(pc)
		}
		rows = append(rows, row{Name: comp.Name, Total: c.Code, Recovery: c.Recovery})
		total.Total += c.Code
		total.Recovery += c.Recovery
	}
	rows = append(rows, total)
	return rows, nil
}

// render formats rows as the Fig. 9-style table.
func render(rows []row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %9s %13s %6s\n", "Component", "Total LoC", "Recovery LoC", "%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %9d %13d %6s\n", r.Name, r.Total, r.Recovery, r.pct())
	}
	return b.String()
}

// moduleRoot walks up from dir to the directory containing go.mod.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// totalsByPackage tallies every package under root (for reporting overall
// repository size).
func totalsByPackage(root string) (map[string]lineCount, error) {
	out := make(map[string]lineCount)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if d.Name() == ".git" {
			return fs.SkipDir
		}
		c, err := countDir(path)
		if err != nil {
			return err
		}
		if c.Code > 0 {
			rel, _ := filepath.Rel(root, path)
			out[rel] = c
		}
		return nil
	})
	return out, err
}

// sortedNames returns map keys in order.
func sortedNames(m map[string]lineCount) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
