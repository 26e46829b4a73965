package core

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteCSVDir writes every table and figure as a CSV file under dir
// (created if needed) for external plotting.
func (s *Study) WriteCSVDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range s.render() {
		for _, file := range f.files {
			if err := writeCSV(dir, file); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeCSV writes one file of the export under dir.
func writeCSV(dir string, file csvFile) error {
	f, err := os.Create(filepath.Join(dir, file.name))
	if err != nil {
		return err
	}
	if err := file.write(f); err != nil {
		f.Close()
		return fmt.Errorf("core: writing %s: %w", file.name, err)
	}
	return f.Close()
}
