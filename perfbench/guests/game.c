// An unmodified C game in the style of the shadowgame case study: each
// level loads its map and the shared tileset synchronously from the
// asset directory, builds per-level state in malloc'd memory, frees it,
// and writes a save file after the level.
char savepath[32];
char save[64];

int level(int n) {
    char path[32];
    strcpy(path, "/assets/level00.dat");
    path[13] = '0' + n / 10;
    path[14] = '0' + n % 10;
    char *tiles = readfile("/assets/tiles.dat");
    char *map = readfile(path);
    if (tiles == 0 || map == 0) { return -1; }
    int tn = strlen(tiles);
    int mn = strlen(map);
    int *cells = malloc(mn * 4);
    int sum = n;
    for (int i = 0; i < mn; i++) {
        cells[i] = map[i] ^ tiles[i % tn];
        sum = sum * 31 + cells[i];
    }
    for (int i = 0; i < 64; i++) {
        save[i] = 'a' + (cells[i] + n) % 26;
    }
    free(cells);
    free(map);
    free(tiles);
    strcpy(savepath, "/save/slot00.sav");
    savepath[10] = '0' + n / 10;
    savepath[11] = '0' + n % 10;
    if (writefile(savepath, save, 64) != 0) { return -1; }
    return sum;
}

int main() {
    char *count = readfile("/assets/levels.txt");
    if (count == 0) { return 1; }
    int levels = atoi(count);
    free(count);
    for (int n = 0; n < levels; n++) {
        putint(level(n));
        putchar(10);
    }
    return 0;
}
