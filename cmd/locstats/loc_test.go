package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCountSource(t *testing.T) {
	src := `// Package doc.
package x

/* block
comment */
func f() int {
	x := 1 // trailing comment still code
	return x // [recovery]
}
`
	c := countSource(src)
	if c.Code != 5 {
		t.Errorf("Code = %d, want 5", c.Code)
	}
	if c.Comment != 3 {
		t.Errorf("Comment = %d, want 3", c.Comment)
	}
	if c.Blank != 2 {
		t.Errorf("Blank = %d, want 2 (incl. trailing)", c.Blank)
	}
	if c.Recovery != 1 {
		t.Errorf("Recovery = %d, want 1", c.Recovery)
	}
}

func TestCountSourceBlockComment(t *testing.T) {
	src := "code()\n/*\na\nb\n*/\ncode()\n"
	c := countSource(src)
	if c.Code != 2 || c.Comment != 4 {
		t.Fatalf("code=%d comment=%d", c.Code, c.Comment)
	}
}

func TestModuleRootAndTable(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := table(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 10 {
		t.Fatalf("only %d rows", len(rows))
	}
	byName := map[string]row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// The paper's qualitative claims about recovery LoC distribution must
	// hold for this code base too:
	// 1. The reincarnation server is where the recovery logic lives.
	if rs := byName["Reinc. Server"]; rs.Recovery == 0 {
		t.Error("reincarnation server shows no recovery code")
	}
	// 2. The process manager and microkernel carry zero recovery code.
	if pm := byName["Process Manager"]; pm.Recovery != 0 {
		t.Errorf("process manager has %d recovery LoC, want 0", pm.Recovery)
	}
	if k := byName["Microkernel"]; k.Recovery != 0 {
		t.Errorf("microkernel has %d recovery LoC, want 0", k.Recovery)
	}
	// 3. Drivers need only the shared driver library's few lines.
	if d := byName["RTL8139 Driver"]; d.Recovery != 0 {
		t.Errorf("rtl8139 has %d device-specific recovery LoC, want 0", d.Recovery)
	}
	if lib := byName["Driver Library"]; lib.Recovery != 5 {
		t.Errorf("driver library recovery LoC = %d, want the paper's 5", lib.Recovery)
	}
	// 4. The RAM disk has none at all.
	if rd := byName["RAM Disk"]; rd.Recovery != 0 {
		t.Errorf("ram disk has %d recovery LoC, want 0", rd.Recovery)
	}
	// 5. File server recovery code exists but is a small fraction.
	fs := byName["File Server"]
	if fs.Recovery == 0 || fs.Recovery*2 > fs.Total {
		t.Errorf("file server recovery = %d of %d", fs.Recovery, fs.Total)
	}
	out := render(rows)
	if !strings.Contains(out, "Reinc. Server") || !strings.Contains(out, "Total") {
		t.Fatalf("render missing rows:\n%s", out)
	}
}

// Every non-test Go file of the reincarnation server's package is counted
// by exactly one Fig. 9 row, so a row that names files rather than the
// directory neither drops a file nor counts one twice.
func TestCoreFilesCountedOnce(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	// goFiles lists the files countPath tallies for path.
	goFiles := func(path string) []string {
		if strings.HasSuffix(path, ".go") {
			return []string{path}
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			t.Fatal(err)
		}
		var files []string
		for _, e := range entries {
			name := e.Name()
			if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				files = append(files, filepath.Join(path, name))
			}
		}
		return files
	}
	counted := map[string][]string{} // file -> the rows counting it
	for _, comp := range fig9Components(root) {
		for _, path := range comp.Paths {
			for _, f := range goFiles(path) {
				counted[f] = append(counted[f], comp.Name)
			}
		}
	}
	core := goFiles(filepath.Join(root, "internal/core"))
	if len(core) == 0 {
		t.Fatal("internal/core: no Go files")
	}
	for _, f := range core {
		if rows := counted[f]; len(rows) != 1 {
			t.Errorf("%s is counted by %d rows %q, want exactly 1", f, len(rows), rows)
		}
	}
}

func TestPct(t *testing.T) {
	cases := []struct {
		r    row
		want string
	}{
		{row{Total: 100, Recovery: 0}, "0%"},
		{row{Total: 1000, Recovery: 5}, "<1%"},
		{row{Total: 100, Recovery: 30}, "30%"},
		{row{Total: 0, Recovery: 0}, "-"},
	}
	for _, tc := range cases {
		if got := tc.r.pct(); got != tc.want {
			t.Errorf("Pct(%+v) = %q, want %q", tc.r, got, tc.want)
		}
	}
}

func TestTotalsByPackage(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	totals, err := totalsByPackage(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(totals) < 15 {
		t.Fatalf("only %d packages", len(totals))
	}
	var sum int
	for _, c := range totals {
		sum += c.Code
	}
	if sum < 5000 {
		t.Fatalf("repository code lines = %d, implausibly small", sum)
	}
}
